"""Golden digests of same-seed transcripts and sweep CSVs.

Speed-ups must leave what a seeded run produces byte-identical. These tests
pin the sha256 of ``RunTranscript.to_text()`` (events recorded) for every
graph family, two wake nodes per graph and four advice budgets, and of the
CSV text of two small sweeps. A change that alters any of them changes what
the simulator computes and has to say so.
"""
import hashlib

import pytest

from qwake.advice import assign_advice, compute_epoch_plan
from qwake.harness import ExperimentConfig, run_sweep
from qwake.network import (
    WakeConfig,
    build_hidden_matching_graph,
    clique_graph,
    path_graph,
    random_connected_graph,
    random_perfect_matching,
)
from qwake.scheduler import RunParams, run_wakeup

ALPHAS = (0, 3, 5, 7)

# name -> zero-argument builder of the network
GRAPHS = {
    "clique8": lambda: clique_graph(8),
    "clique33": lambda: clique_graph(33),
    "clique64": lambda: clique_graph(64),
    "path9": lambda: path_graph(9),
    "random16-p0.1-s1": lambda: random_connected_graph(16, 0.1, 1),
    "random16-p0.1-s2": lambda: random_connected_graph(16, 0.1, 2),
    "random16-p0.4-s1": lambda: random_connected_graph(16, 0.4, 1),
    "random16-p0.4-s2": lambda: random_connected_graph(16, 0.4, 2),
    "random60-p0.1-s1": lambda: random_connected_graph(60, 0.1, 1),
    "random60-p0.1-s2": lambda: random_connected_graph(60, 0.1, 2),
    "random60-p0.4-s1": lambda: random_connected_graph(60, 0.4, 1),
    "random60-p0.4-s2": lambda: random_connected_graph(60, 0.4, 2),
    "hidden-matching12": lambda: build_hidden_matching_graph(12, random_perfect_matching(12, 5)).network,
}


def wake_nodes(net) -> tuple[int, int]:
    """The first node and one from the middle of the ID range."""
    return 1, net.n // 2 + 1


def transcript_digest(graph: str, which: int, alpha: int) -> str:
    net = GRAPHS[graph]()
    wake = WakeConfig.single(wake_nodes(net)[which])
    plan = compute_epoch_plan(net, wake)
    assignment = assign_advice(net, plan, alpha)
    seed = 7000 + 100 * which + alpha
    t = run_wakeup(net, wake, assignment, RunParams(record_events=True), seed=seed)
    return hashlib.sha256(t.to_text().encode()).hexdigest()


TRANSCRIPTS = {
    "clique8-w0-a0": "aa0effbd71e6bceba896c896bad1b0f4ca36b5dc00456c8480106d66c50b4443",
    "clique8-w0-a3": "469bda119da9e94bb733388b4cdb081420c476061a7b7a3222f291e5f331bf6c",
    "clique8-w0-a5": "96158f26df8c8b1ad8961ac144c70e9c47c9676decf4e831e5852d34df2ca3ea",
    "clique8-w0-a7": "fa1891d506a88bccafd12d689813ebd7023f06e7a24ea4f1d7aeda05bd51e3e8",
    "clique8-w1-a0": "ca0fd7db08b3c79359c140e652624307fcdcaa810c4dadf914ec7ee0d866b9df",
    "clique8-w1-a3": "eb6dbd7d38e16a3f3ac7d273b1fd7dba983ceb6322b0282dc6aefc59db3c2bbf",
    "clique8-w1-a5": "63b1d0a5ee5e431e9aa8abe3b2a928cc7ff1b2394ab581c6bb97307431bfc85c",
    "clique8-w1-a7": "524a632397308a2ac358663eae45db332f4ab9dc02a22abaf4d18673b8dbcb33",
    "clique33-w0-a0": "ff2be6007183d4af50b22a0dd930358520faf1d61676bd2eea367ef891986ce9",
    "clique33-w0-a3": "0fbf17d4023584b3325817eef6256ab90ab3413daf45f405d2f19deb5ec49c63",
    "clique33-w0-a5": "7930d91cfe55c9e0df19521649eb62491b9c3d24106e01a5ed153abb8b0f7b2d",
    "clique33-w0-a7": "a272e5772ea7f77a502515b471fa028d5d2736e04674fa6db9642ba57f7f3067",
    "clique33-w1-a0": "5ebdfe22ac911b49d4006c30112cd8de454cd3653aa640a3a28c508b36f773a2",
    "clique33-w1-a3": "b608a11173000a22287967ae1583aedf3ef799616f3629623333e9892afa9cdb",
    "clique33-w1-a5": "3772a93075588b4a154a601459d662d7b640afa5371525d8af5981b911480871",
    "clique33-w1-a7": "c86e3028cfee386994da03d70a8931503266541e4358ba73b5cd39686a563ac6",
    "clique64-w0-a0": "8a19a1e427cf187e1d6634cb83c56c58c0bc8a4f310899b6f2f8ebeb49330b6f",
    "clique64-w0-a3": "11704c01e19dd8a36d709d6661a690cd95455ce0f5e14151f81cc360a879cc10",
    "clique64-w0-a5": "4b8fb52aadb2e8f6a090f3d4f30df0973e6afbb0dbc3af2ee4ab084a4e1052f0",
    "clique64-w0-a7": "c32c31b8feea581008efb6c4624e0d92f0f47f326245441dbd4ba5881c1bc3cc",
    "clique64-w1-a0": "f1eb77fd13f0fb4b9f48fecc5964a24ab0beeaafac26a3a03744db72d93b1bdb",
    "clique64-w1-a3": "bac864faa3b3e3e9bef8e76e980a2814a86f3de5b2021a8c7edb7870fffd354b",
    "clique64-w1-a5": "bac00e7a69c02a7872b1af904b23d2fd7a43b79b27ce0e4d68932a1bd6076e9a",
    "clique64-w1-a7": "ba368d0e59a6c6fdb14668748ddbc111ad6b0d34a81e0e53117e68f1329da8de",
    "path9-w0-a0": "a451b64baf93bb38234e19ead33f4b549864a725458e234cac109bd24e95c87e",
    "path9-w0-a3": "46e5d73207af2f88f46e69fea4dec9e28433bd4b5e431bed4a2a376f9dd7216d",
    "path9-w0-a5": "dccb54b3c3882cde36d402c3163257927e67fa3c771b5c1d36fd8bfb9f26332f",
    "path9-w0-a7": "e9b9adda9d5a8f9e7aa63b8a2b43308b772e72861171b19299fb75b7b6e598b6",
    "path9-w1-a0": "4d1b92f717936a058678d23fc7391465c1b6f2813e27d403e93b8575c468f16c",
    "path9-w1-a3": "ea8e7c776f3c39479562b9c3207a31c1f0debe99fae20240bf10ab60beabd695",
    "path9-w1-a5": "709bf7a58956f6186955c1eac6a07484b92635c1ac9e96e7c1133a1106ee5f8a",
    "path9-w1-a7": "087420d4d36a35feddfa33eed76bdcaeca5bb6a6168599a1170dd2d08a246957",
    "random16-p0.1-s1-w0-a0": "b798e6f91256c27d106c0219f935f04cba39a850bc114c0f31cdc742720de6b6",
    "random16-p0.1-s1-w0-a3": "c679523bdffe4f31cb140e0006c4a45dc4cc1c9148d567c10464fa7458b77e30",
    "random16-p0.1-s1-w0-a5": "8654e1ee80e324f34bbda63bff1352bf8c00332cbd44d1efccb86717b658f70e",
    "random16-p0.1-s1-w0-a7": "9d2a58f3b1b3d913ad1512a809a83806848e2178138558169e65c7e454fecd38",
    "random16-p0.1-s1-w1-a0": "b547bbf833aa5e342e1a2df80b515b662989e13c81c52e4887b67ed50add5993",
    "random16-p0.1-s1-w1-a3": "f2bd2c573e043cf77ef048d7859ddcb174726a3fdfecbea2a31c6e8315421f38",
    "random16-p0.1-s1-w1-a5": "0143d5b48ee063e098559ab6090a88d265044827b5809cc774f66a5027ffc21d",
    "random16-p0.1-s1-w1-a7": "033910835c31ecbbb809a05f4e7da48bb2263c2bcf4d9629d493deeac871a0bc",
    "random16-p0.1-s2-w0-a0": "f4d6e83628b961d2f8ce34a2ff4bd5e60b5d4f138b6ef41e93cf27995296bb65",
    "random16-p0.1-s2-w0-a3": "d8c0241dc515274c80389974a89345b333cf50734d749b7bcbf7b06d49359f9f",
    "random16-p0.1-s2-w0-a5": "4156ad4ed45aadc27f2c33fb757f3af4a776f76b63dcda62396a4f44a9a716fd",
    "random16-p0.1-s2-w0-a7": "ae4c579268686abde592b3a5537a5616897b96288a0e562e0c479ffd856b7640",
    "random16-p0.1-s2-w1-a0": "61281d22cdb59ada2f78f4e8a2b597f01c95a307c268f3e62cd3a71794402a00",
    "random16-p0.1-s2-w1-a3": "a284a39a583c7a0a6784110aed17ed132f3452f96ea468133da6abbe7dcf859b",
    "random16-p0.1-s2-w1-a5": "9056adf1dcf3f5de400344ddd0b543cf3fc5f73cd19b0169006bca1efec3585e",
    "random16-p0.1-s2-w1-a7": "51cd61d7ab9e827b0ebd0bb26fb9ae85c9ff97838286ed8ea5c396b3112a27c2",
    "random16-p0.4-s1-w0-a0": "dccdad7590dbee98febb0eb01946283f181fa7524aaca8582dfcdb0d0c888bb7",
    "random16-p0.4-s1-w0-a3": "eba574bc01dd4850b595bbba0793b8841799e7d6561f0b3d7615536a40e9f8ca",
    "random16-p0.4-s1-w0-a5": "d8a86428221ee00d28a2119d251905a6c0940b75dfcb0b34e18118f77f0903fc",
    "random16-p0.4-s1-w0-a7": "e8ddc01b2756219a2e1f70ae5322bacff7e1f509a2fd5320e26a0345abd6752a",
    "random16-p0.4-s1-w1-a0": "066be6e89ab7914f5d9aff9434a586ef7e8f46d8d17191ecd96c2f75f7604ff0",
    "random16-p0.4-s1-w1-a3": "e008b9701d0f952b251dad5eed3d92d8df79f934a900c23e13e507f7f468e802",
    "random16-p0.4-s1-w1-a5": "8f8af3052d014dae8afd8925961fbf916f6c67ee1edaeb133bb708cfde3bdf11",
    "random16-p0.4-s1-w1-a7": "1abdf7ff0bb2f98ed1d8b18755c5fb8c53f46d98076aff6c9d5b267b544a7747",
    "random16-p0.4-s2-w0-a0": "4fb3023ec414dcc99a7bacb8943eae6bce634ecba2490bd395b5b7f19dbb977c",
    "random16-p0.4-s2-w0-a3": "fed77cdecc51491a5217671f3104335c50b897d1be7346e4df42329249bb34bf",
    "random16-p0.4-s2-w0-a5": "f43bd5af676ee8f837009422243c032786d4c1432428d6840f5beb7662fe20e9",
    "random16-p0.4-s2-w0-a7": "6a8970e5a1d07b375d310fde941ae8705629d43e6273965e679d84c2b14e0e4e",
    "random16-p0.4-s2-w1-a0": "c1c06ad92f61e15754a34dd75f31480d0539e8bf4843b7b9495ebb690f621661",
    "random16-p0.4-s2-w1-a3": "43b5e4253f5c05578c5c2b8192a1cbb70292249f9898d5d1251fc979d1f896ce",
    "random16-p0.4-s2-w1-a5": "93b00e21ba8261416eb9e3bdfcaea241a97b2fa0d05518c660b0a837ee772716",
    "random16-p0.4-s2-w1-a7": "4731a63969575e2ac3702b0c67c65c63ea93cd4abc6b283ac8b8c93ee4cff897",
    "random60-p0.1-s1-w0-a0": "5d19833466dd3a5a80999872038915b344ec91f33ad39409d1677678770ab6db",
    "random60-p0.1-s1-w0-a3": "74f79f34ef8890b2d7ef6b801c50b465868c65607e05ce07cbaf620f5e22e14b",
    "random60-p0.1-s1-w0-a5": "3688d397273d567501d9024c25da7a59688a9c2347eec6cbd38580286b1093e5",
    "random60-p0.1-s1-w0-a7": "46e54562889471223096f24483d3c09f9dbd2bb4a636c77aa037fe01299a2cf0",
    "random60-p0.1-s1-w1-a0": "4e74c817053573d68da6ee363699e90e643310265b1cd49c8b9072512bd39ca5",
    "random60-p0.1-s1-w1-a3": "4b113c1bc4cf3f7a3889c854c7cb4faf41236986a8d391cda510e2b1af8c71c4",
    "random60-p0.1-s1-w1-a5": "b100b158417487e5f8aad8e0face036edf4fb3d48c4de95d1242fcf2bd3bea7f",
    "random60-p0.1-s1-w1-a7": "0f0b1566b03cd9960ec8e38ceda332a50c5094845245ed836d739ec31839674b",
    "random60-p0.1-s2-w0-a0": "b601992edcf073f526f9e52da7a50ea50f1b6f2d8f96996daa1b6eb9d2fd4555",
    "random60-p0.1-s2-w0-a3": "247c50143c8ec87724e6b46cc56c7888ad0da6d5d000e4b55c0e2d81e57aeb6c",
    "random60-p0.1-s2-w0-a5": "1901425ec18d47dac8098d789b9c039b33507233c69bf80d35694f0dc837ef56",
    "random60-p0.1-s2-w0-a7": "3a14c85e56f647303bfcbd9e1cd878bda4f7eb6832863e2a1614c0cdfc98cb99",
    "random60-p0.1-s2-w1-a0": "6000b6c9b9ff4b263b325d5c87918583877c30e328863bdae686a193481a35e2",
    "random60-p0.1-s2-w1-a3": "18aa93baf6074bc87945cb02c40a9adf0ba063657103bc5806ab1d6dc3f54ea5",
    "random60-p0.1-s2-w1-a5": "f273ddeb0fa0fb0e6f9757d67996870973079f8d2b2e5a3db2e71f64fb907ef0",
    "random60-p0.1-s2-w1-a7": "3c8430901cec65a2ddf6a9d95ed2560b9c576d9fd1211e3686d8741c58cf0750",
    "random60-p0.4-s1-w0-a0": "fbb4b399faf2c1fb350d2249e3917e128cab8c7206b62d539fa11a4d7092c01b",
    "random60-p0.4-s1-w0-a3": "18f76fac29e7a00f991920477b54163aa1041084f1ab6a87e341412fe6664c72",
    "random60-p0.4-s1-w0-a5": "6599e17e8055a4bf640a7bf731508a836d46f60d7afe29413470b912f605370a",
    "random60-p0.4-s1-w0-a7": "f7e5b75ffbd2b3b910ec934c7177e25dab80f84158ae17384fb1bfe5ff1f2328",
    "random60-p0.4-s1-w1-a0": "8b4a9b5f2daea7b90d019dc9b207d07f33c7801efe517f3c9950b8840132511e",
    "random60-p0.4-s1-w1-a3": "6ee3976a18f1fdecded71b2485844438d6aa0b04b6dac9da9d467041cc112dd4",
    "random60-p0.4-s1-w1-a5": "9d8ef81b1a8ff360ba426a6519e565128e542cebe39adeb872cccdae8d9279fd",
    "random60-p0.4-s1-w1-a7": "8f97a1529087c6d29b20d54b443653a7ad47e91e44efb97702d09a40ac59c61a",
    "random60-p0.4-s2-w0-a0": "2ae16c7eb8d30b0cd6fdabe274c89d939e7b7400b2cea107f0bcb31d958bb207",
    "random60-p0.4-s2-w0-a3": "cb1fd668484a0b9f17cd5fbd19d2488a07fb10a38bc8f69899bfc43acaa466de",
    "random60-p0.4-s2-w0-a5": "b7f2551a5df25e6f63937140c1e8d93a2e5bb3689ce662b9685c1cd57aad493d",
    "random60-p0.4-s2-w0-a7": "ea4f270eb432d97d4d181ca8b4aea3e9fe6b723c3973bdf101186be7c398557d",
    "random60-p0.4-s2-w1-a0": "fdb6fe9ddcf5228366be615aac86b89d1038c1f6db07b50343a0bbfc05fa7b31",
    "random60-p0.4-s2-w1-a3": "6d69c876036433297ad6aabc1b903cb10f797eaeab3f71afb48c9a2919eaacb3",
    "random60-p0.4-s2-w1-a5": "c05ab2273ef5c8945a33ac1d68e171e24de3a6ef5543fe948eb737679bc1e04a",
    "random60-p0.4-s2-w1-a7": "5d48685d6bc50d838a523b95fe6ebaf874e5d34c640a74282fe8d0ea2d43f48a",
    "hidden-matching12-w0-a0": "e95f4b341181d9f9395a54e50753dfc8184efcc97896720944d0294ce687b0e4",
    "hidden-matching12-w0-a3": "ba58401cdd10929557f2a21488b38a5e4ae14bd45f435c86de401ab74c692cbe",
    "hidden-matching12-w0-a5": "46e8950c3f6fe2d440634edd0b523088393e90b2f391442854e8a7fe0ff902e6",
    "hidden-matching12-w0-a7": "b13352c47a15bd8f5a8ea33973d711f71efbd129c5fc750ece6d0cc778c330d9",
    "hidden-matching12-w1-a0": "c5cc66ca4492cfe6a241fb9d4847b1542578afa554e4573b5b453a71e22ecb5a",
    "hidden-matching12-w1-a3": "6866eb678c3f63a24c6e54a86367f6c7b7f11a2450ab2036f189b894afc72ec1",
    "hidden-matching12-w1-a5": "7a1653c9eb4c89a6778d3d76275131e9deedaa57381ad17040c53e82e5aa2670",
    "hidden-matching12-w1-a7": "6b11929bf9fe755249bb7f6674d98f36b4e6c3eaaf3ba63a4b710332be4ada1d",
}

CASES = [(g, w, a) for g in GRAPHS for w in (0, 1) for a in ALPHAS]


@pytest.mark.parametrize("graph,which,alpha", CASES, ids=[f"{g}-w{w}-a{a}" for g, w, a in CASES])
def test_transcript_digest(graph, which, alpha):
    assert transcript_digest(graph, which, alpha) == TRANSCRIPTS[f"{graph}-w{which}-a{alpha}"]


SWEEPS = {
    "clique": ExperimentConfig(family="clique", n_values=(8, 16, 24), alpha_values=(0, 5), seeds_per_cell=3, seed=11),
    "random": ExperimentConfig(
        family="random",
        edge_probability=0.3,
        n_values=(10, 20),
        alpha_values=(0, 3, 7),
        wake_rule="random-k:2",
        seeds_per_cell=3,
        seed=12,
    ),
}

SWEEP_CSVS = {
    "clique": "d996bb75d79b0e2b7886b3732b556a4be8e0871386833c178fd3a440c41ac3b3",
    "random": "9d820c54e8b79d07ab381f2ca24d6cf1ea51e88854122c6d2e0b2fc9555ba00b",
}


def sweep_digest(name: str, path) -> str:
    run_sweep(SWEEPS[name], csv_path=str(path), resume=False)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_digest(name, tmp_path):
    assert sweep_digest(name, tmp_path / "sweep.csv") == SWEEP_CSVS[name]
