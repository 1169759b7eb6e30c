"""Pinned ``probe`` output: SHA-256 of the ``--json`` and ``--trace`` bytes.

Every built-in egress plus the ``custom:`` copy-outer table, under every
ingress and capability, on a clean path and under criterion-4 noise (AQM
0.1, loss 0.05).  The hashes pin the exact bytes, so an optimisation of the
simulator or engine that changes any output fails here.

To regenerate the table after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and paste what it prints
over ``GOLDEN``.
"""

import hashlib

import pytest

from ecnprobe.cli import main
from ecnprobe.tunnels import custom_table_text, derive_seed, mangled_copy_outer

EGRESSES = (
    ("rfc6040", "rfc6040"),
    ("rfc4301", "rfc4301"),
    ("rfc3168", "rfc3168"),
    ("rfc2003", "rfc2003"),
    ("copy_outer", "custom:" + custom_table_text(mangled_copy_outer())),
)
INGRESSES = ("copy", "zero", "rfc3168full")
CAPABILITIES = ("full", "ce_only")
# (name, aqm_ce_probability, loss_probability)
NOISES = (("clean", 0.0, 0.0), ("noisy", 0.1, 0.05))

CONFIGS = {
    f"{label}/{ingress}/{capability}/{noise}": (
        f"ingress = {ingress}\negress = {egress}\n"
        f"aqm_ce_probability = {aqm}\nloss_probability = {loss}\n"
        f"capability = {capability}\n"
        f"seed = {derive_seed(0, 'golden', label, ingress, capability, noise)}\n"
    )
    for label, egress in EGRESSES
    for ingress in INGRESSES
    for capability in CAPABILITIES
    for noise, aqm, loss in NOISES
}


def probe_hashes(directory, key):
    """(exit code, sha256 of --json bytes, sha256 of --trace bytes) for one config."""
    config = directory / "scenario.cfg"
    json_out = directory / "report.json"
    trace_out = directory / "run.trace"
    config.write_text(CONFIGS[key])
    code = main(["probe", "--config", str(config), "--json", str(json_out), "--trace", str(trace_out)])
    return (
        code,
        hashlib.sha256(json_out.read_bytes()).hexdigest(),
        hashlib.sha256(trace_out.read_bytes()).hexdigest(),
    )


GOLDEN = {
    "copy_outer/copy/ce_only/clean": (
        1,
        "41fd1cb9daded46cd854412e2e7f0694434a2cd8fc2cccffe27c92714b3247e4",
        "d58fcd1174c84ac6804b7894bb0011799c6e177a97b7c193b253a5582dac7523",
    ),
    "copy_outer/copy/ce_only/noisy": (
        1,
        "4fa4f6d9cb8a000c82899efb3ab9e3ef7d6b22c41a3e6347a55109fd7047d619",
        "1395a27c90d1c5405c3f3be3a7ff6be86d6bf904fa7f98b32988644ca277115a",
    ),
    "copy_outer/copy/full/clean": (
        1,
        "2cb5b1221c7277b46fe9a15e74ecd1c18f6c0f37e39dd5dc83b6a24ffda9aca6",
        "ca116346f5508a67827fbc31081867c79ea4bb2a51cf311e55eb982382365fb2",
    ),
    "copy_outer/copy/full/noisy": (
        1,
        "4a2f587cc6d29c9afeaa326116a8b1ac923807a997fa3db62aec14768097ab4c",
        "ac0991330b3acc3bfb79a28ded2ef6073b54e8fe251d0211d007924297ee305b",
    ),
    "copy_outer/rfc3168full/ce_only/clean": (
        1,
        "8c863882f1af82bb942ef131e02d6c06c03ea938c02a3d766356ef1aa9f14bd0",
        "63623e39210557aa561dd68d3990af42795a48186e133158008116213935620a",
    ),
    "copy_outer/rfc3168full/ce_only/noisy": (
        1,
        "a68b35ef56242f56d07a991789643122010075ebbbebabf7445a91f45e5817f1",
        "67ab8b96d1019eb28afe65a13e3cf1a0f11e087782acfdb5699c7e0cb2d47323",
    ),
    "copy_outer/rfc3168full/full/clean": (
        1,
        "e104b1626e7a6294343e7f628050cf3fef0fab21bd0daea702ee60fb303768e6",
        "915c11670ada894e7683f3b18d50d9cfdf5638defccd3c0f3966cea442120982",
    ),
    "copy_outer/rfc3168full/full/noisy": (
        1,
        "7394f2c457f723c05a4a4bad8b6607791637e73fd0c078234d6282acdef64f68",
        "3aadd7dc1c17e04319f7b08e6bf512175da376eec7af5835a07582bdb093f19d",
    ),
    "copy_outer/zero/ce_only/clean": (
        1,
        "07b6b8bfd8277fe28fe1370717d65e9f7d0b0d8735f55c495992831a3e7f67ff",
        "411ea495b0132ce6e153e3fa6bc292a90f0ac2233de756feb392ca265eaf389d",
    ),
    "copy_outer/zero/ce_only/noisy": (
        1,
        "39097f19c5dc013cfc48acc9239fd6a906e99720d556c2d07ab7f47db4dc158e",
        "202808746c6aceda52a2210449d2356ec22bed2e9705ef10feaf8f961d986e19",
    ),
    "copy_outer/zero/full/clean": (
        1,
        "95ba2aa3b88606f3d6cb2222d3c224ea8b7c3be7e358fc581483c2497cbc2501",
        "a4f550e780c81dbc97826aada9a5fa2f22286a6c28ed8f95a414861fadf3831d",
    ),
    "copy_outer/zero/full/noisy": (
        1,
        "8175ce19764f98b4a1bd64dd9938238519d3afa4ad170dde1f80c648c0d53b5c",
        "bc44c08ab47d7878c65037199e56868dd55bb5c3d89b395a3a38be07d0f463bd",
    ),
    "rfc2003/copy/ce_only/clean": (
        1,
        "efcd6fa8379b18a67a48de5bc1e417cdffc2fed18723c5f6d2cefe9f8140bea1",
        "07785bc9163a3f8bbae31ac2beacecbceb338e232c651de355567df9365b74d7",
    ),
    "rfc2003/copy/ce_only/noisy": (
        1,
        "609a266c4d7a1c48b65bbc7f8f8d8b4524b17c48f46b16579ca68bfcd2e24857",
        "98132490edda96d0d6ae6db11349293731cd296f565a9cd43c6d8c9aee3ec57b",
    ),
    "rfc2003/copy/full/clean": (
        1,
        "e5a8f42a0481eb37ce0fac67fa736e84de4e7ce40e1e7235d3bfed8351dbbdc8",
        "de55f5de4c8ed328545b25f849527d1d842385fc44b5dc676dd52fe159b13574",
    ),
    "rfc2003/copy/full/noisy": (
        1,
        "4e2bde1e9978ef2e4053a60a8e8a115e23320c786391989c2de1e3f3da8a8284",
        "6f01a3c93b7d1ec896e49e55f3b381296c740db67f0eb82877021e0877282579",
    ),
    "rfc2003/rfc3168full/ce_only/clean": (
        1,
        "b61c2b7383b3d0da4a61c4ef95ba2da7a67b9b0b60c08ceb3e6de705b5137f21",
        "5af1c68f3c7369c9a7ed643ceaf65bf180a0c475c548d9185395536a054448fa",
    ),
    "rfc2003/rfc3168full/ce_only/noisy": (
        1,
        "a71159124535205bcab2e174ab9db6430bbdd51558fed55f7bfe93410f2ffd2e",
        "4114f53ea77879ae4248a4156f7d0a65377462044c86cdf0e54cf839dd79893c",
    ),
    "rfc2003/rfc3168full/full/clean": (
        1,
        "c69e1afeeecfb4cc7e73c47e06a6fc47be7c48f0d0183981fdd30aebed3bb4a2",
        "00da73b362d7eba45d56459e749f663982012557b73aba2eb9a46f8d893b5b25",
    ),
    "rfc2003/rfc3168full/full/noisy": (
        1,
        "016151c8990113c877c9669d2a12a9ecd6346e6d97af111a306825400d505900",
        "9db554d54f1bc55da3a06ebea8d7d5a4fd0b68a894205536984ac55d8e33c205",
    ),
    "rfc2003/zero/ce_only/clean": (
        1,
        "04c7de24f9be2e990370975c0f8ca59c6194fb22824d305c5cf6e8caab030e7f",
        "0db04aaf25390b16fd532532a005f127568fb0969c9740aee796178fd19cf014",
    ),
    "rfc2003/zero/ce_only/noisy": (
        1,
        "77755fdeba916c79b389388e6288cf364c672b0be1a5e50c34ffb340573bdf73",
        "c59c5ce112acd67f711f36826e9b3fa2c1504ca5e018252891a182216aa53fce",
    ),
    "rfc2003/zero/full/clean": (
        1,
        "38594dcf2eac8a8a28f3767235cec3636dfb89762a3591003b1253524167910a",
        "55bed122e41361dda44609fd01a6007f8b07b838b7e0f62dbffffa20b3c55f49",
    ),
    "rfc2003/zero/full/noisy": (
        1,
        "dd0c142dbb559ab28cd4c63355ad2bd45faf0c6acc552d237299804c2818a03e",
        "8293c6e4c2faf628e33c65cca373d5239f9f861a47eb5de1b1f6ec64ee177f85",
    ),
    "rfc3168/copy/ce_only/clean": (
        0,
        "47bf896c0f7cefa79dd8fa4905fd16d648f2284ced24f401732a607d18a39a90",
        "9980810681dc589291c7a764af48f8b66ea0a252c80d1203b3abc956c029f7d3",
    ),
    "rfc3168/copy/ce_only/noisy": (
        0,
        "322eed1bd28e39fbfa58f90d300dd9ca4c61a6675e48c10c675a618066aa44b0",
        "3d3c9519915499ce71e585eecc7032daa104c2852b8edeae814bb8e7bf3da362",
    ),
    "rfc3168/copy/full/clean": (
        0,
        "8aab80e973139a086fe270e7626895c60772f410de5b2dd2fd3471dab08b2dba",
        "52fa7d759a4f083f75864a7497aa36fec631306632cb4231470fc2850183a6b5",
    ),
    "rfc3168/copy/full/noisy": (
        0,
        "15c7c69600ed5135e4a662f8533fb9556a01d79846ef77b0db64165763dc9368",
        "137026708330c6e3d67c7df27dcfa19d93c736c181af44b7bb0e1817932ad153",
    ),
    "rfc3168/rfc3168full/ce_only/clean": (
        0,
        "30d2e6ffd5030e3ad498112ded4c0592610cb2a753fed4457f1274b4587fc4d0",
        "cfd31f8fa9feb42fa4f5ea75a6c9deed79b0dbaec50536234640ac80dd59d67e",
    ),
    "rfc3168/rfc3168full/ce_only/noisy": (
        0,
        "b97f148e7dfe9d0f4ba32e178da3c02fa7d9f79a1680c8c54647b20c185551f8",
        "f459818ae97090282775a3a1381a35f7aee230c4014e55af87796f20d2791e63",
    ),
    "rfc3168/rfc3168full/full/clean": (
        0,
        "201864ee10b1be42a67e0bb85518361134a93d3c1f86ca6e0a809160c1f50b35",
        "d0fcb54428853c161d4422f3ababf379cbb5c8de3e03ffa4629150f408ebec3b",
    ),
    "rfc3168/rfc3168full/full/noisy": (
        0,
        "e1a7a978c16e6c458b3647aa72d04f5826c973367f1b9ef8e55225eac15c76e7",
        "61df223fcade3780763bd51cad4e955c16eaeaabe036bad2aeaa4f553bb68e4a",
    ),
    "rfc3168/zero/ce_only/clean": (
        0,
        "03b12da0e7a311e4d099a72b404e43c52e49f2cb3b3037b0fc30cebca4f3a872",
        "915eb86565b2630222bdcb16bcbae5aef77bf7facd5458c01e408d5032cb54b6",
    ),
    "rfc3168/zero/ce_only/noisy": (
        0,
        "3e71d4bfc44423098fe5f76e7c24d52f4f60f82559372c106362ca44cb4da0c4",
        "6ef72474a565a9127da629a2f8508899fdcc452b3129279e2eb4b8af69d7d915",
    ),
    "rfc3168/zero/full/clean": (
        0,
        "b8e0ecacf0145622d676f4a7e38e3a751fffa0faa20e61e5cc248db232a1211d",
        "d23037aefefeb3fea13b30c619bbd0b3ecf3f71d55069c875bbd4538555b5015",
    ),
    "rfc3168/zero/full/noisy": (
        0,
        "de85d6962a099d8256fda2d137ef6b165caad37e4a279405354ea5d1d229fbfc",
        "c0356d8cb01286f306f79dd0177eaf4ccca038774ae9e6df55aba3c956b51144",
    ),
    "rfc4301/copy/ce_only/clean": (
        0,
        "f3f450f582bbaae5c5aa51619266d41c5175a0be6be16096eb4e3cf61bc78b26",
        "c9f7bc71b8975b4933f1a29c2c494e231caf19a5dfc38c74de2124dec7bc36f4",
    ),
    "rfc4301/copy/ce_only/noisy": (
        0,
        "272fd945c497771187a3755f71c14fca3a449655f93444a94bf9a622974e43bd",
        "181f4634cf41ef5ef26a9b970c1071d5427bf85b3972913da4f49272a8fb0ce6",
    ),
    "rfc4301/copy/full/clean": (
        0,
        "bbe028e14e80895c1b19fe1c5024183b7daa8ef9b90f42f2ae5aa6509e47cda7",
        "d6e76931814d2e17334a515f02db3e58e80ce1c41bb76464ec910861c6f94722",
    ),
    "rfc4301/copy/full/noisy": (
        0,
        "042990d5d21cb1cafbb4ed256504976dd747ffb9b03d1e4dd846202ab226e826",
        "aa4a7e1f15ac39d5bc01a7992214b21cb6d0e4aaebf5ccbc13ba843698ddc5f8",
    ),
    "rfc4301/rfc3168full/ce_only/clean": (
        0,
        "7541cafec698963096e8bb67d6767884ceab395434ff9e218f71d285904603f4",
        "fd8ed0d684c208abf632de8dabde21097b9c8553d294ed69fbfbaa550bdc40ee",
    ),
    "rfc4301/rfc3168full/ce_only/noisy": (
        0,
        "89525245cddafd78c3de5f7043445b2b88c09784724491e898162bdd8ec8e4ab",
        "1ac3fe049eb06f97ec271d206460e4dd3a48e7b8a68a85172f9fe0de01c9be41",
    ),
    "rfc4301/rfc3168full/full/clean": (
        0,
        "7a4dc7a6f9498a26a9895b75d96f0987776d4009e8886db0c0843b620c3ec2f2",
        "1a5328287019c11a7ca85ecfaccc18da753c8b6a57990dca7f06169bd6d34710",
    ),
    "rfc4301/rfc3168full/full/noisy": (
        0,
        "ec7025f9fda6ba4a42843626718293a9253340af91f56733cd74e2c7c5a39aa9",
        "732e9f1de0d908c8014237e67037448da748d3d39ff93d5a2158ab4ee4c1d36c",
    ),
    "rfc4301/zero/ce_only/clean": (
        0,
        "4ca39000f861ab527f73aab33f122eb1622b18265ce45098e7b400761ef72681",
        "ba0376997f7aa4c781e1a14d3ebabf108a1d74cf85fb4df9f02c408d1a852a1c",
    ),
    "rfc4301/zero/ce_only/noisy": (
        0,
        "6cc2583c910d36bd93523a4fd68d355a413806c8a03d2b6198b2260f94a4971d",
        "3645bf66d983c0893d833d697be72edf0e35c23d99bb14eedf9eda17d8f95144",
    ),
    "rfc4301/zero/full/clean": (
        0,
        "ff1a525224eff3bee2aed8fcbb82007bca4b31a4e9f4c1d3bb78fddb2d603069",
        "c75318979c3415e5b0c3d51489cb8624a6f13f710ec8f2a5b1d785b78a4f92cc",
    ),
    "rfc4301/zero/full/noisy": (
        0,
        "dff068ca84aad1182ae1577a18980c285bd102f4655dcad4d4d07884eba6f5cd",
        "fbe3f7c9777410808388998d1fdd5da24357aa2d4258c5e9cac02de280cc2c02",
    ),
    "rfc6040/copy/ce_only/clean": (
        0,
        "ef886dd49614c44e0946bf710ef3a2f3a08e13d2ea4cb73979fdd7e8823a331f",
        "9980810681dc589291c7a764af48f8b66ea0a252c80d1203b3abc956c029f7d3",
    ),
    "rfc6040/copy/ce_only/noisy": (
        0,
        "11670ae3c2eec209f8263064c1a31031ad10240acf36c1d21b44602c0ac624d7",
        "2134eecb747dce3c8a495c60aa85d06335e3196b9d87d544138926c812603353",
    ),
    "rfc6040/copy/full/clean": (
        0,
        "8ecb77c284af7033ce8dfb29f9931634c57a05e6fb4ee2554803a71c400ff666",
        "76b8ab3b58db75e4b6339ce8e12dfbf1a0f585cf552c0d42584e5a3fd010fa79",
    ),
    "rfc6040/copy/full/noisy": (
        0,
        "897f913488e5e4b0859222df1e97afb09b03a72d1958551e98d02ce2eb16ef15",
        "7e8f53cfc5cddc1ea0ec3134923e37c1b94b04dedec8cc8ed4af3e69921df264",
    ),
    "rfc6040/rfc3168full/ce_only/clean": (
        0,
        "bbdc5583a5207a2071e823708d74103fd81772d58e3a1c9fd9ab1368541824fe",
        "cfd31f8fa9feb42fa4f5ea75a6c9deed79b0dbaec50536234640ac80dd59d67e",
    ),
    "rfc6040/rfc3168full/ce_only/noisy": (
        0,
        "dd5de6f9d9a757b6049b9b460c279674b93a3a1c7943216a072a4cf86afd1efb",
        "20451b1e514459564a74366dadd6e28a26cc8441e30f9cb92374baed75e729ca",
    ),
    "rfc6040/rfc3168full/full/clean": (
        0,
        "a8eb412c611047320663882dd19db98e06f222219b3efd034bb2ec1406e03f26",
        "b0c416dd30fe0b9e78d96582e6c8ee32eda0673fad8ebbef792a0ef7674173bf",
    ),
    "rfc6040/rfc3168full/full/noisy": (
        0,
        "061b3317eeb1d5f63bcc578672e9622f9b4141667621129b0f058b117a6026ba",
        "cebb75aebda5c22c7f662a450fa49420132c72bd31e581b65a617ea69d568aa0",
    ),
    "rfc6040/zero/ce_only/clean": (
        0,
        "8b1d0ed799b9287248e2ab8ea16f04f4b1d60e5d7fa203e3288dae47190377db",
        "915eb86565b2630222bdcb16bcbae5aef77bf7facd5458c01e408d5032cb54b6",
    ),
    "rfc6040/zero/ce_only/noisy": (
        0,
        "5f69f66592c48481572c98bce5e06d35c381a59a67a24f9b655f1fe69beadf6f",
        "be74ca1772814939849a460b4e6c7e27a7254be77a1a7ee64bc529ebd1f5bad3",
    ),
    "rfc6040/zero/full/clean": (
        0,
        "6108f082d71aba4e6a9d22c0c5151af0ade01195bd39b4a0e699bc1a8786d76e",
        "6a122520aa1c484956b0ba063aad67b448d3cc1a4ddd5ce2d23193d82cc64448",
    ),
    "rfc6040/zero/full/noisy": (
        0,
        "2a9f5ecd207a2e1ec9f3f4900c6169eb8b3f59587f6fa892f9ecb11269f505f6",
        "c3f616ed8eb775ba8396b728d854d5f82e6cf50fa415657a67ae9ccad68b5555",
    ),
}


def test_golden_covers_every_config():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_probe_output_matches_golden(key, tmp_path, capsys):
    got = probe_hashes(tmp_path, key)
    capsys.readouterr()
    assert got == GOLDEN[key]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for key in sorted(CONFIGS):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code, json_hash, trace_hash = probe_hashes(Path(tmp), key)
            print(f'    "{key}": (\n        {code},\n        "{json_hash}",\n        "{trace_hash}",\n    ),')
        print("}")
