"""Pinned CLI output: SHA-256 of ``probe``'s ``--json`` and ``--trace`` bytes,
and of the stdout and stderr of ``probe``, ``tables``, ``selftest`` and
every usage and config error.

Every built-in egress, the ``custom:`` copy-outer table and a seeded
``custom:`` random table, under every ingress and capability, on a clean
path, under criterion-4 noise (AQM 0.1, loss 0.05) and under heavy noise
(AQM 0.3, loss 0.3); every egress again with the smallest (1 server x 1
repetition) and a large (8 x 10) session; and one dead path (loss 1.0),
whose control failure must write neither file.  The hashes pin the exact
bytes, so an optimisation of the simulator or engine that changes any
output fails here.  ``GOLDEN_CLI`` pins what a user sees on the terminal for the
same configs, for ``tables`` and ``selftest``, for ``--version`` and usage
errors, and for a fixed list of invalid configs that reaches every config
error message; those texts are built from the same name and row tables as
the reports.

To regenerate the tables after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and paste what it prints
over ``GOLDEN`` and ``GOLDEN_CLI``.
"""

import contextlib
import hashlib
import io

import pytest

from ecnprobe.cli import main
from ecnprobe.tunnels import custom_table_text, derive_seed, mangled_copy_outer, mangled_random

EGRESSES = (
    ("rfc6040", "rfc6040"),
    ("rfc4301", "rfc4301"),
    ("rfc3168", "rfc3168"),
    ("rfc2003", "rfc2003"),
    ("copy_outer", "custom:" + custom_table_text(mangled_copy_outer())),
    ("random_table", "custom:" + custom_table_text(mangled_random(derive_seed(0, "golden-table")))),
)
INGRESSES = ("copy", "zero", "rfc3168full")
CAPABILITIES = ("full", "ce_only")
# (name, aqm_ce_probability, loss_probability)
NOISES = (("clean", 0.0, 0.0), ("noisy", 0.1, 0.05), ("heavy", 0.3, 0.3))
# (name, servers, repetitions)
SIZES = (("1x1", 1, 1), ("8x10", 8, 10))

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
CONFIGS.update(
    {
        f"{label}/copy/full/noisy/{size}": (
            f"egress = {egress}\naqm_ce_probability = 0.1\nloss_probability = 0.05\n"
            f"servers = {servers}\nrepetitions = {repetitions}\n"
            f"seed = {derive_seed(0, 'golden', label, size)}\n"
        )
        for label, egress in EGRESSES
        for size, servers, repetitions in SIZES
    }
)
CONFIGS["rfc6040/copy/full/dead"] = "egress = rfc6040\nloss_probability = 1.0\n"

_ZERO_ALL_ROWS = [
    f"{inner},{outer}->not_ect"
    for inner in ("not_ect", "ect1", "ect0", "ce")
    for outer in ("not_ect", "ect1", "ect0", "ce")
]
# Config files ``probe`` must reject, or (the last two) accept, with their
# exact messages: every field's error, every custom-table error and every
# line-level parse error.
EXTRA_CONFIGS = {
    "empty": "",
    "comments-only": "# nothing here\n\n   # still nothing\n",
    "missing-egress": "ingress = copy\nservers = 2\n",
    "unknown-ingress": "ingress = tunnel\negress = rfc6040\n",
    "unknown-egress": "egress = rfc9999\n",
    "unknown-capability": "egress = rfc6040\ncapability = partial\n",
    "aqm-above-one": "egress = rfc6040\naqm_ce_probability = 1.5\n",
    "aqm-negative": "egress = rfc6040\naqm_ce_probability = -0.5\n",
    "loss-above-one": "egress = rfc6040\nloss_probability = 2\n",
    "loss-negative": "egress = rfc6040\nloss_probability = -0.1\n",
    "servers-zero": "egress = rfc6040\nservers = 0\n",
    "repetitions-zero": "egress = rfc6040\nrepetitions = 0\n",
    "both-counts-zero": "egress = rfc6040\nservers = 0\nrepetitions = 0\n",
    "seed-negative": "egress = rfc6040\nseed = -1\n",
    "probes-over-limit": "egress = rfc6040\nservers = 101\nrepetitions = 100\n",
    "every-field-bad": (
        "ingress = teleport\negress = rfc9999\naqm_ce_probability = 7\nloss_probability = 2.0\n"
        "seed = -3\nservers = 0\nrepetitions = 0\ncapability = psychic\n"
    ),
    "unparsable-values": (
        "egress = rfc6040\nservers = three\naqm_ce_probability = high\nseed = 1.5\n"
        "repetitions = \nloss_probability = 0,1\n"
    ),
    "unknown-key": "egress = rfc6040\ncolour = red\n",
    "duplicate-key": "egress = rfc6040\negress = rfc4301\nseed = 1\nseed = 2\n",
    "line-without-equals": "egress = rfc6040\njust some words\n",
    "case-sensitive-key": "Egress = rfc6040\n",
    "custom-empty": "egress = custom:\n",
    "custom-no-arrow": "egress = custom:not_ect,not_ect not_ect\n",
    "custom-one-codepoint": "egress = custom:not_ect->not_ect\n",
    "custom-unknown-codepoint": "egress = custom:not_ect,purple->not_ect\n",
    "custom-unknown-outcome": "egress = custom:not_ect,not_ect->purple\n",
    "custom-duplicate-entry": "egress = custom:not_ect,ce->dropped;not_ect,ce->drop\n",
    "custom-incomplete": "egress = custom:" + ";".join(_ZERO_ALL_ROWS[:11]) + "\n",
    "custom-drop-alias": "egress = custom:" + ";".join(_ZERO_ALL_ROWS[:-1] + ["ce,ce->drop"]) + "\n",
    "custom-spaced-entries": "egress = custom: " + " ; ".join(_ZERO_ALL_ROWS) + " ;\n",
}

# key -> (argv, config text appended as ``--config FILE``, or None).  An
# argument's ``{dir}`` is the run's directory, which holds FILE as scenario.cfg.
CLI_RUNS = {f"probe/{key}": (["probe"], text) for key, text in CONFIGS.items()}
CLI_RUNS.update({f"config/{key}": (["probe"], text) for key, text in EXTRA_CONFIGS.items()})
CLI_RUNS.update(
    {
        "tables": (["tables"], None),
        "selftest": (["selftest"], None),
        "selftest/seed-7": (["selftest", "--seed", "7"], None),
        "version": (["--version"], None),
        "usage/no-command": ([], None),
        "usage/unknown-command": (["warp"], None),
        "usage/probe-without-config": (["probe"], None),
        "usage/bad-selftest-seed": (["selftest", "--seed", "x"], None),
        "usage/unknown-flag": (["tables", "--colour"], None),
        "usage/json-is-config": (["probe", "--json", "{dir}/scenario.cfg"], "egress = rfc6040\n"),
        "usage/trace-is-config": (["probe", "--trace", "{dir}/./scenario.cfg"], "egress = rfc6040\n"),
        "usage/json-is-trace": (["probe", "--json", "{dir}/out", "--trace", "{dir}/out"], "egress = rfc6040\n"),
    }
)


def probe_hashes(directory, key):
    """(exit code, sha256 of --json bytes, sha256 of --trace bytes) for one config.

    A hash is None when ``probe`` did not write that file.
    """
    config = directory / "scenario.cfg"
    json_out = directory / "report.json"
    trace_out = directory / "run.trace"
    config.write_text(CONFIGS[key])
    code = main(["probe", "--config", str(config), "--json", str(json_out), "--trace", str(trace_out)])
    return (
        code,
        hashlib.sha256(json_out.read_bytes()).hexdigest() if json_out.exists() else None,
        hashlib.sha256(trace_out.read_bytes()).hexdigest() if trace_out.exists() else None,
    )


def cli_hashes(directory, key):
    """(exit code, sha256 of stdout, sha256 of stderr) for one CLI run."""
    argv, config_text = CLI_RUNS[key]
    argv = [arg.format(dir=directory) for arg in argv]
    if config_text is not None:
        config = directory / "scenario.cfg"
        config.write_text(config_text)
        argv = argv + ["--config", str(config)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (
        code,
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
    )


GOLDEN = {
    "copy_outer/copy/ce_only/clean": (
        1,
        "41fd1cb9daded46cd854412e2e7f0694434a2cd8fc2cccffe27c92714b3247e4",
        "d58fcd1174c84ac6804b7894bb0011799c6e177a97b7c193b253a5582dac7523",
    ),
    "copy_outer/copy/ce_only/heavy": (
        1,
        "d3032e1574ed197465867e6a8008b1a4cd68c752ac4b1236b8363ae9bad04e83",
        "a5abe7bfab365daf2033778cbdbb8a470a6b6e42f13c593d64acecf557ec3581",
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
    "copy_outer/copy/full/heavy": (
        1,
        "7dba01fe5916f4751418a13662949dbf93f6786c46151c2f348f4efc1979a87f",
        "3db5fa798a8881bd622b0babde78e4e9fb565f184be5dc9443bdb3dead24052a",
    ),
    "copy_outer/copy/full/noisy": (
        1,
        "4a2f587cc6d29c9afeaa326116a8b1ac923807a997fa3db62aec14768097ab4c",
        "ac0991330b3acc3bfb79a28ded2ef6073b54e8fe251d0211d007924297ee305b",
    ),
    "copy_outer/copy/full/noisy/1x1": (
        1,
        "0a46e442eda18fdcd69715c37a19ea8001efb14a9b2f2404afe6ac51269c9574",
        "687793d4c8aadfe0e86b96b628784e486e75f4736558f5ec7f2f3b4c10d6ca23",
    ),
    "copy_outer/copy/full/noisy/8x10": (
        1,
        "83bf84e7bf9ba041c0509424a0ec6372de0fc936a999aaa1c3fb995a9a152916",
        "f571f10d5a552168fba86c0eb53feb4f137258eef52f738f6831e6a1bf35549c",
    ),
    "copy_outer/rfc3168full/ce_only/clean": (
        1,
        "8c863882f1af82bb942ef131e02d6c06c03ea938c02a3d766356ef1aa9f14bd0",
        "63623e39210557aa561dd68d3990af42795a48186e133158008116213935620a",
    ),
    "copy_outer/rfc3168full/ce_only/heavy": (
        1,
        "9a3e2c942a9efbdff5005fade192aa8b03db0f10d6d9ba46942c554700a6db83",
        "69d36d7523d7ad011b02e96d284c1932c38ecc31a2ffc2ef7edbc044192ee9e4",
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
    "copy_outer/rfc3168full/full/heavy": (
        1,
        "c13a239cef4e60f9c02be75bcd7a0333c997d5bfb9c53d5f5ed45c79f742a8f9",
        "c984ab9496f34943e2701baa00c892eac280f2a328896ab87afa8a9be4893df7",
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
    "copy_outer/zero/ce_only/heavy": (
        1,
        "366588951501c2a7292125c4c644179926f796a4070b8b08103cbc67720dd9dc",
        "d85a72d1e2b6a57a13ab6cabc2f112e5f859ae019ae1e58f8c6a493be601ee8f",
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
    "copy_outer/zero/full/heavy": (
        1,
        "71c4d42e620001b138d4c476f804cd3d59ed44c802fb7ced7cdc69ad8720edb7",
        "2b765f087102d872833b058116819ca3ad2dd60fc2393146b4e070c555f6dc47",
    ),
    "copy_outer/zero/full/noisy": (
        1,
        "8175ce19764f98b4a1bd64dd9938238519d3afa4ad170dde1f80c648c0d53b5c",
        "bc44c08ab47d7878c65037199e56868dd55bb5c3d89b395a3a38be07d0f463bd",
    ),
    "random_table/copy/ce_only/clean": (
        3,
        None,
        None,
    ),
    "random_table/copy/ce_only/heavy": (
        3,
        None,
        None,
    ),
    "random_table/copy/ce_only/noisy": (
        3,
        None,
        None,
    ),
    "random_table/copy/full/clean": (
        3,
        None,
        None,
    ),
    "random_table/copy/full/heavy": (
        3,
        None,
        None,
    ),
    "random_table/copy/full/noisy": (
        3,
        None,
        None,
    ),
    "random_table/copy/full/noisy/1x1": (
        3,
        None,
        None,
    ),
    "random_table/copy/full/noisy/8x10": (
        3,
        None,
        None,
    ),
    "random_table/rfc3168full/ce_only/clean": (
        3,
        None,
        None,
    ),
    "random_table/rfc3168full/ce_only/heavy": (
        3,
        None,
        None,
    ),
    "random_table/rfc3168full/ce_only/noisy": (
        3,
        None,
        None,
    ),
    "random_table/rfc3168full/full/clean": (
        3,
        None,
        None,
    ),
    "random_table/rfc3168full/full/heavy": (
        3,
        None,
        None,
    ),
    "random_table/rfc3168full/full/noisy": (
        3,
        None,
        None,
    ),
    "random_table/zero/ce_only/clean": (
        3,
        None,
        None,
    ),
    "random_table/zero/ce_only/heavy": (
        3,
        None,
        None,
    ),
    "random_table/zero/ce_only/noisy": (
        3,
        None,
        None,
    ),
    "random_table/zero/full/clean": (
        3,
        None,
        None,
    ),
    "random_table/zero/full/heavy": (
        3,
        None,
        None,
    ),
    "random_table/zero/full/noisy": (
        3,
        None,
        None,
    ),
    "rfc2003/copy/ce_only/clean": (
        1,
        "efcd6fa8379b18a67a48de5bc1e417cdffc2fed18723c5f6d2cefe9f8140bea1",
        "07785bc9163a3f8bbae31ac2beacecbceb338e232c651de355567df9365b74d7",
    ),
    "rfc2003/copy/ce_only/heavy": (
        1,
        "58f49a5fc3f334a5d0da4362a529d77d03a74b7bd317deb7e9f3426cdddd43f3",
        "0ca52f530bf87df303e1e7d183243d88b3af59860a00af26ab50676d14fb72ae",
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
    "rfc2003/copy/full/heavy": (
        1,
        "bc9f9c946ec6bb017619367c138519f09b25b63954527a5868f1264b8c5b66e3",
        "525bcf182897dbb1fc2c0ae4f5c18b3226ede6ff44fa43d390c1bc11de1556de",
    ),
    "rfc2003/copy/full/noisy": (
        1,
        "4e2bde1e9978ef2e4053a60a8e8a115e23320c786391989c2de1e3f3da8a8284",
        "6f01a3c93b7d1ec896e49e55f3b381296c740db67f0eb82877021e0877282579",
    ),
    "rfc2003/copy/full/noisy/1x1": (
        1,
        "842b84d392188341f5fa35eea83c32d49fc0ab1bd8769e041c6753714f9db87d",
        "9328cb6e1a7dfae6f84630a492cf8dd17d2ad86f83d9c06e086469f29537f1c7",
    ),
    "rfc2003/copy/full/noisy/8x10": (
        1,
        "309ebb4e9054b227e0dcf065dc6915c0875639721929e46d91aaae321bbb6f2d",
        "3413710e49f4cd06700c292686298faa07e2415a5f914a438634ebb60c311e3b",
    ),
    "rfc2003/rfc3168full/ce_only/clean": (
        1,
        "b61c2b7383b3d0da4a61c4ef95ba2da7a67b9b0b60c08ceb3e6de705b5137f21",
        "5af1c68f3c7369c9a7ed643ceaf65bf180a0c475c548d9185395536a054448fa",
    ),
    "rfc2003/rfc3168full/ce_only/heavy": (
        1,
        "f61e9767d4f84d8eb4913d5bc57671a92d595f1bb52ed116db85f11e3ebd8fd3",
        "fb9a5523d04618dbf35f33159e1409f7239282443823818851d312665b23a28a",
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
    "rfc2003/rfc3168full/full/heavy": (
        1,
        "30712018e87b4911058dc94b64c9b73215b30970521b662a70914d47bed6d69f",
        "7eb4a7dee93bd75382ea1ad5ee609d52c2bb852947cab573ecefcea78bf274be",
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
    "rfc2003/zero/ce_only/heavy": (
        1,
        "821d2de71f4535eb72689d0dd5a1ed037ab87a5eb248163b8acba8fd66c15269",
        "6b4761de36afc2610872d399bdd527bafe6246b01dda62fba878a7e6ee61b819",
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
    "rfc2003/zero/full/heavy": (
        1,
        "32ade16fb524f0b6b1fb82195cf59c82eb59af6488e058663c6663ac032b22c6",
        "9f8f06f026e9cb9aef434bf3fffcae6fb434f3e7abfca36193b92b410c7e13e2",
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
    "rfc3168/copy/ce_only/heavy": (
        0,
        "5889daa9470a74e35495c419add9d23770a63d7166e3302ef9d0aa3f734fd1c9",
        "1bb96ea3039c9d95a7f81385415ca7beacf3a336c5060d89f644026d1c593538",
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
    "rfc3168/copy/full/heavy": (
        1,
        "2b16f17ee9458e294c5b3f361d20825d7ec64843114c8e83f6725ba90f4099a8",
        "2868cb2b7d8d0a161505c77a92441aa38bfe9a45915d653fa2fdc7b2a8d227d8",
    ),
    "rfc3168/copy/full/noisy": (
        0,
        "15c7c69600ed5135e4a662f8533fb9556a01d79846ef77b0db64165763dc9368",
        "137026708330c6e3d67c7df27dcfa19d93c736c181af44b7bb0e1817932ad153",
    ),
    "rfc3168/copy/full/noisy/1x1": (
        0,
        "dfc437f8f3cb98e0584cc9ddfde98bcfce3cd98fd557f78bed23d9579b9a0b0b",
        "eed4f1a954b3d1b3038fabe4932cdf439358d0df0a0ba3068bca8a3e925a2a91",
    ),
    "rfc3168/copy/full/noisy/8x10": (
        0,
        "dbe0b77a345483e7228a8fcc7401d5a8ac00856e08b0f09d82b01f329817d978",
        "4aaf887e70cf5aae9348cc63e6fde53d77685cf0334817df352b20e80cee27a1",
    ),
    "rfc3168/rfc3168full/ce_only/clean": (
        0,
        "30d2e6ffd5030e3ad498112ded4c0592610cb2a753fed4457f1274b4587fc4d0",
        "cfd31f8fa9feb42fa4f5ea75a6c9deed79b0dbaec50536234640ac80dd59d67e",
    ),
    "rfc3168/rfc3168full/ce_only/heavy": (
        0,
        "fe74f429757022ca1c8a3240e1c8ecfbacb8edc05c144e2eb7ebdbd6036f0d04",
        "879060d3f2279504864d1341f00928a2b562773e23475d71f0586b6c9b856a64",
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
    "rfc3168/rfc3168full/full/heavy": (
        0,
        "1ad5df378503b58d955343d15d82afa033b3c62ba428437e27dde4029abeb670",
        "833a637d39f24a5bc7714cd167b23ff8af0b6b426908bba1b65a63f078c418db",
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
    "rfc3168/zero/ce_only/heavy": (
        0,
        "bdfa966f35b3ad02745444096cd203da626e9c1f8e53f882ede185ab4d9453b1",
        "18b60b16d6af842d9b33d407b7107b8dad3d327b110d23f4171f4918db4165fd",
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
    "rfc3168/zero/full/heavy": (
        1,
        "22f014bae5b132d56798ebadfffdb836b49a5f2cb5fa43c4608b78e708fb9628",
        "57eedea16c369b5924eabfe7cc2fe00a5e36df90d9cf39c7fec8780e50c24266",
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
    "rfc4301/copy/ce_only/heavy": (
        0,
        "ce5b3baeb9831a5a3b38e2d31803c5b5cca52fd2e080ca202dd577ad86ca84c6",
        "b6d86d917af00dea7ad10dfa6074e7411e17148b8e55b241dea4836df3e96335",
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
    "rfc4301/copy/full/heavy": (
        1,
        "39c29ef5f4f758f599fa60085b1f94632c17884e78f796f48bc43ee7166a05c7",
        "e06d993eb988b6fdc40e0baee2f3d2dbf4bef8e12d6bc217fa8e42ff7873295a",
    ),
    "rfc4301/copy/full/noisy": (
        0,
        "042990d5d21cb1cafbb4ed256504976dd747ffb9b03d1e4dd846202ab226e826",
        "aa4a7e1f15ac39d5bc01a7992214b21cb6d0e4aaebf5ccbc13ba843698ddc5f8",
    ),
    "rfc4301/copy/full/noisy/1x1": (
        0,
        "78220233cb802fe0f05f8880f0109e2af4d5eee6c78c9fd6ef04e4c84dc1410a",
        "25f54181a1abce6ffccd2da5b78e49be0cb75a49b558e72929f0816764ac2d5d",
    ),
    "rfc4301/copy/full/noisy/8x10": (
        0,
        "f376a1048040734e2fd267b0d93083c949371490a9ee3bf62ec3ccb93023fb54",
        "3026a4360f2d245c83043480c0f039c775d5aa9ec916ac931e3edfe0eb5899ed",
    ),
    "rfc4301/rfc3168full/ce_only/clean": (
        0,
        "7541cafec698963096e8bb67d6767884ceab395434ff9e218f71d285904603f4",
        "fd8ed0d684c208abf632de8dabde21097b9c8553d294ed69fbfbaa550bdc40ee",
    ),
    "rfc4301/rfc3168full/ce_only/heavy": (
        0,
        "2a82dbe75b50acbf482dec7b155e4ab9f967925fa1cdb68fa71c41be209de956",
        "4cc6f323b0cb3834610a9cc9c3b9331417e8301c01384f3691777b53778c9d05",
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
    "rfc4301/rfc3168full/full/heavy": (
        0,
        "58e97c2931c20d1d8d2ca0af4da23ae9c6963ddac71448af7e52dddd1fa1484c",
        "28f1d1e57d8350ee30d4b142b4db1928bc4543332a66c53dc4206063aaee5717",
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
    "rfc4301/zero/ce_only/heavy": (
        0,
        "cffee5b8bdebd636a12bec5cde9346e81d36b89dcf88395dc603e1a7629871c0",
        "32adeeeccfc76286e8cd96ec2098406866cb6e965695541c5394db16b837adab",
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
    "rfc4301/zero/full/heavy": (
        0,
        "f9a306581b9922e30848a8f3a97643e94a303fdf43c6afa5ab0d3448862b2cea",
        "ceb0605f74927f34bc55278cd5cba782a9084b795de8593f86c922a11d242062",
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
    "rfc6040/copy/ce_only/heavy": (
        0,
        "6b1b174077bdd5b6517f76493bf2a3bdd55fd753e264c22341957845cc18b83b",
        "b04e395a6c62466d41b918b4a3f014da85d04a120c810d206cf88adb3b8a7b0c",
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
    "rfc6040/copy/full/dead": (
        3,
        None,
        None,
    ),
    "rfc6040/copy/full/heavy": (
        0,
        "61f5d3e0654b49dffbf6d0d81f48af9f2d05a49d5050d8c871bec8e03cf37957",
        "25b1e5e44445ab6c811459a2503dc2a6d7fb44a55d8e04585730eb435af43883",
    ),
    "rfc6040/copy/full/noisy": (
        0,
        "897f913488e5e4b0859222df1e97afb09b03a72d1958551e98d02ce2eb16ef15",
        "7e8f53cfc5cddc1ea0ec3134923e37c1b94b04dedec8cc8ed4af3e69921df264",
    ),
    "rfc6040/copy/full/noisy/1x1": (
        0,
        "5b7b00e98d9a7e1674d81f27302291ead07d43b8992c6c4b228e08274f0d1c89",
        "225f493cfcce7fa675de322f504aa81af70182117fcfcc587ad15f637b359444",
    ),
    "rfc6040/copy/full/noisy/8x10": (
        0,
        "11698cf8faef3e1cf85c2322181e50fc7922a1d64cc2ebb24a3d4e54432e4929",
        "033e1d795a1f6f4870a736002aef7759e63600dae7d806d6e68e044e0315f003",
    ),
    "rfc6040/rfc3168full/ce_only/clean": (
        0,
        "bbdc5583a5207a2071e823708d74103fd81772d58e3a1c9fd9ab1368541824fe",
        "cfd31f8fa9feb42fa4f5ea75a6c9deed79b0dbaec50536234640ac80dd59d67e",
    ),
    "rfc6040/rfc3168full/ce_only/heavy": (
        0,
        "48b7f9358e3b77f7b5d9afd7841eac871aabad5972c59a40cf3e06d96a02660b",
        "700e8fb7ebd4fcd18778caa89ca081ed58aabbf7aaaddf0b413922e3527498e1",
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
    "rfc6040/rfc3168full/full/heavy": (
        1,
        "bf66b4bc30a96c152b63ea5ca753dc6165d1461f4458df67fe425b67a188b526",
        "37503279ec112c065841b4814e38e100c2d0eb28419e348cca6429f74d487df6",
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
    "rfc6040/zero/ce_only/heavy": (
        0,
        "2aa2435ec6c0e6f042a61b3f774e2b646b7f29e0a0fd7b6c6674b9fdb49e6c19",
        "f89f0a83673166619ab321391e7648ca1458d2fd62c40bb063bf1c81ad47a3a1",
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
    "rfc6040/zero/full/heavy": (
        0,
        "b3cc6f84f0cb0817dd6c99335b94d2f11ec4cab3abeb9f649cfe4f2058f5159a",
        "a080b68cb590dc016834b2cdd60c1318de887ab979a94d98b5d9c684d167bc36",
    ),
    "rfc6040/zero/full/noisy": (
        0,
        "2a9f5ecd207a2e1ec9f3f4900c6169eb8b3f59587f6fa892f9ecb11269f505f6",
        "c3f616ed8eb775ba8396b728d854d5f82e6cf50fa415657a67ae9ccad68b5555",
    ),
}


GOLDEN_CLI = {
    "config/aqm-above-one": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9e2d826fb31f95b5de8b65652848545f3d33174d2e0e3f23ca43623e30612d81",
    ),
    "config/aqm-negative": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9e2d826fb31f95b5de8b65652848545f3d33174d2e0e3f23ca43623e30612d81",
    ),
    "config/both-counts-zero": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "60cadca0e8a290c37518a55a6607c8ea00504be02e0790d79cb44ebcd98f7562",
    ),
    "config/case-sensitive-key": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a5f8d31e2332cfea467727dc6bd58c3afcb9f48a7583a3d43aa24f22dce69c29",
    ),
    "config/comments-only": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ab1760960aa4e0a16cf33de69960d5e2e46af2220575a73edc9080bfeee3bb88",
    ),
    "config/custom-drop-alias": (
        1,
        "0e216d0f2e6b0a694502bd932a98711d98f84250e7220125fd66e8f4c777f61a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "config/custom-duplicate-entry": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "536813e007a45b4bbc4c8e7eea40f074d4adac952193815b0325b478c3d31592",
    ),
    "config/custom-empty": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "09b62aec84638751c5e9442a0531c01c2a8ddcaa70c9baaffc5fbea722866851",
    ),
    "config/custom-incomplete": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bcc6700a8f5b758da64b420b2e9250ca16e44301b0f8bd12565fc3b16a316a6c",
    ),
    "config/custom-no-arrow": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1d0f704d3d7f56648a3dbbbc9379913ce63a20ba1d2c8aacac409600122d965c",
    ),
    "config/custom-one-codepoint": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f0b64d0c46ec9a1c46bb085d90cf9a9bdfe46fddb03ded30f665232f6e549a3f",
    ),
    "config/custom-spaced-entries": (
        1,
        "e0cb5b880e3b80817fd6e89c66f9ba8d0da3e9f6089e0238bebc8b71c4c0af9d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "config/custom-unknown-codepoint": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ee818da8bf09c73376343974797d66fcc64c8e60f6a0ea692807a68f35bc6526",
    ),
    "config/custom-unknown-outcome": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "22d88774745e353cbc4e7945da81d750291a2651e2f5688622a05e54e00ad31f",
    ),
    "config/duplicate-key": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "096e1606d89d383254a2c656d9f750cde888b5283bdd82fe9f664ce21c23c225",
    ),
    "config/empty": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ab1760960aa4e0a16cf33de69960d5e2e46af2220575a73edc9080bfeee3bb88",
    ),
    "config/every-field-bad": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "06d07f3249afbc614a4ae427bfe999f362690dc748fb75dd627538f5b1258a52",
    ),
    "config/line-without-equals": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0f64ec8073e1d1ace2e44454b90094ccc0685e2fc7176f76451a7468f72be57e",
    ),
    "config/loss-above-one": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7835d07e7d03bbb3d84e8a0946548f2f2b4e7f14ec9c860cd8551063740af3fc",
    ),
    "config/loss-negative": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7835d07e7d03bbb3d84e8a0946548f2f2b4e7f14ec9c860cd8551063740af3fc",
    ),
    "config/missing-egress": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ab1760960aa4e0a16cf33de69960d5e2e46af2220575a73edc9080bfeee3bb88",
    ),
    "config/probes-over-limit": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6b8dcba4bd06118069b9b6e87623ad06b474be295d9a6dc2089aedb5d2aef041",
    ),
    "config/repetitions-zero": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "aa95490347bb787a38436fe030df2319f71244c6e8a69e9f38ac22757988f766",
    ),
    "config/seed-negative": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3ff95d0fb783a0cc6fb2b458800b49e38c4f9064940bc3ef2c85e5ea824f80e1",
    ),
    "config/servers-zero": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4dc24de6724b6b864431657b514d942a9f53947b5557d1e6fa2bad8ec98387b2",
    ),
    "config/unknown-capability": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8b95ff0bfd59f70a8ee853d1f7f51df4717ca358e57a7ee59621b4e7909e3c9e",
    ),
    "config/unknown-egress": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "37665250ceaf959b0c9bb5f732dc98001ff1d89747703e45b2e11fdba6dd1f01",
    ),
    "config/unknown-ingress": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8c32f791e190549296629c77deef97e2e5678b13469045421b747d30e260b5a1",
    ),
    "config/unknown-key": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bc01ee288d02eb59a1d657b1e6d01fb31570a16e953073827ce3c95a50828a70",
    ),
    "config/unparsable-values": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3bf6693d530d14c5f6232d8c476d5e382519968c49115ac68f442192f06ee59d",
    ),
    "probe/copy_outer/copy/ce_only/clean": (
        1,
        "833b51ac7707a24c836cd1cba6102422c28f84a24c333d793c86734c84036c74",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/copy/ce_only/heavy": (
        1,
        "5435a707ea5d7e6a47451f778cd0ef715de28617ad231f41f1bac0b9ab6cae33",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/copy/ce_only/noisy": (
        1,
        "c94e6cd71eb9d06dbb46fbaa8f8ec4806b64dd250b109dc8769749d12a13fb3c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/copy/full/clean": (
        1,
        "f9761aad52b4694239663fc2b213d442541251269fd40bdc1a99eec1820cc5cf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/copy/full/heavy": (
        1,
        "760f32c525106f4742fd13969edf303fe6957c264104fb8d29ab6717ff19fad8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/copy/full/noisy": (
        1,
        "89a66bd9f90f0eb1c61af5f418d7ee9625ffb52ca680737af861f1bd1a94845b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/copy/full/noisy/1x1": (
        1,
        "2fee07890fa403ef04fe86e3c4459e2cbda45776d42320be7ac902e269d0a533",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/copy/full/noisy/8x10": (
        1,
        "938a685fd499029bb2b4672a2e99b068cb221d75bb967ae1b480ad29c6b1bfed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/rfc3168full/ce_only/clean": (
        1,
        "da23545df589215e28d0594e2924796f69fa46df5c46490eaf601938003bb38d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/rfc3168full/ce_only/heavy": (
        1,
        "21f8421317b0809006b60d44315d65262af0b875450fdb735bd96e7c550a6936",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/rfc3168full/ce_only/noisy": (
        1,
        "5e5c08bceff5abb2d60b2804a5e68940249813392c621da9f66802836516b2d3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/rfc3168full/full/clean": (
        1,
        "c8b133d905bef433ff8c6a57b407ab005bde121a6b8cdf879b769250a98df23d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/rfc3168full/full/heavy": (
        1,
        "82196941dfcf962285ec4bbe47e6087969fa32f83cb0ae0c3dae20d91a9425b8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/rfc3168full/full/noisy": (
        1,
        "74f7428e5ac77cab1675a465845d228f9e6661d93de03eb800019e5cfe59bffb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/zero/ce_only/clean": (
        1,
        "e53a082712905de9166f37d3d707681b4f1f227738c12cd958997638e3d35932",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/zero/ce_only/heavy": (
        1,
        "1557174aa4d67dd90d084b4e8a743519c516395f0276e98055c7c678a00dfc69",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/zero/ce_only/noisy": (
        1,
        "44f68cbce067d1d82fc82f7b8c1a7f987e7a62d750a1a0d9688f7c87d820692c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/zero/full/clean": (
        1,
        "32a6efa41946c9611a183569d3f4a662686fa6a2ab34b626c34103c1b4277536",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/zero/full/heavy": (
        1,
        "22aca6e708863c7dab67085dcab208bf9745cc1e4f3cf331321db3b7454f4b1c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/copy_outer/zero/full/noisy": (
        1,
        "ffb3e7dd27c177b04e2337861d83b4465b79804a98d0320c19721356857ef1a9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/random_table/copy/ce_only/clean": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/random_table/copy/ce_only/heavy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/random_table/copy/ce_only/noisy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/random_table/copy/full/clean": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/random_table/copy/full/heavy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/random_table/copy/full/noisy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/random_table/copy/full/noisy/1x1": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/random_table/copy/full/noisy/8x10": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/random_table/rfc3168full/ce_only/clean": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68f35a52c4cc9ff8a94f2b16010ffa9d62ab1e174ab0bf782c592d5eb3c29866",
    ),
    "probe/random_table/rfc3168full/ce_only/heavy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68f35a52c4cc9ff8a94f2b16010ffa9d62ab1e174ab0bf782c592d5eb3c29866",
    ),
    "probe/random_table/rfc3168full/ce_only/noisy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68f35a52c4cc9ff8a94f2b16010ffa9d62ab1e174ab0bf782c592d5eb3c29866",
    ),
    "probe/random_table/rfc3168full/full/clean": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68f35a52c4cc9ff8a94f2b16010ffa9d62ab1e174ab0bf782c592d5eb3c29866",
    ),
    "probe/random_table/rfc3168full/full/heavy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68f35a52c4cc9ff8a94f2b16010ffa9d62ab1e174ab0bf782c592d5eb3c29866",
    ),
    "probe/random_table/rfc3168full/full/noisy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68f35a52c4cc9ff8a94f2b16010ffa9d62ab1e174ab0bf782c592d5eb3c29866",
    ),
    "probe/random_table/zero/ce_only/clean": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9afa10bafbcef40cd194cf1d74f9900c5e30ef584e3c38bb7fddc1b53a858fdb",
    ),
    "probe/random_table/zero/ce_only/heavy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9afa10bafbcef40cd194cf1d74f9900c5e30ef584e3c38bb7fddc1b53a858fdb",
    ),
    "probe/random_table/zero/ce_only/noisy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9afa10bafbcef40cd194cf1d74f9900c5e30ef584e3c38bb7fddc1b53a858fdb",
    ),
    "probe/random_table/zero/full/clean": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9afa10bafbcef40cd194cf1d74f9900c5e30ef584e3c38bb7fddc1b53a858fdb",
    ),
    "probe/random_table/zero/full/heavy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9afa10bafbcef40cd194cf1d74f9900c5e30ef584e3c38bb7fddc1b53a858fdb",
    ),
    "probe/random_table/zero/full/noisy": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9afa10bafbcef40cd194cf1d74f9900c5e30ef584e3c38bb7fddc1b53a858fdb",
    ),
    "probe/rfc2003/copy/ce_only/clean": (
        1,
        "a8119a3a986014f52d33eaf3d55c25ce0a940eabb47ed79f6be1c095359e2884",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/copy/ce_only/heavy": (
        1,
        "8368d1e6334754c168385cb46bc0c3d49580c1ecf24a767ff959aee8e2e49015",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/copy/ce_only/noisy": (
        1,
        "116b4351f115341db85602bff1bf9fe305379381d6ccd9688eabab896a8bc210",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/copy/full/clean": (
        1,
        "4ab9c2f5202e16655f2611c6601d674e967667fd967e0bd21e20fc35d9c2bd76",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/copy/full/heavy": (
        1,
        "158ecbc9ab9d191d1dc9810bb38de4b2c70cc81dc6e1db40747cbaf324d1d356",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/copy/full/noisy": (
        1,
        "cdb178550000aedaa54812bf8947ee28cdcb66a57b8c210f37d8dbe935e234cf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/copy/full/noisy/1x1": (
        1,
        "34360857b34859680a2505005cd9fe67b38214f798123329273fb4f757348b71",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/copy/full/noisy/8x10": (
        1,
        "b3dab747760cc4b41abccbb93b99bfc51d8b913fb1ee1cad25e8ca5c19ee66eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/rfc3168full/ce_only/clean": (
        1,
        "0c91acd2aea325fe923f33469f9305653f289052f333a37d16cf00cccff54f59",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/rfc3168full/ce_only/heavy": (
        1,
        "36ec944f39dc873a91466edbead5094b1d47ce79671f0a7bcb09ac9c6fce3f80",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/rfc3168full/ce_only/noisy": (
        1,
        "633bcd6667b885eca648fa4259d569762ce20d3b53a6b305717c24ecc0251fdc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/rfc3168full/full/clean": (
        1,
        "923c12db1cfa8cf7757f04b36ff8a37faaa5884321e3e281964fcb5370b3749f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/rfc3168full/full/heavy": (
        1,
        "a317f4775c29a4b1dba6878f13588418ce7d59fbe8d50f436fc4a97eaa21d4d1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/rfc3168full/full/noisy": (
        1,
        "8de22f8eae1aaf5b30027c22e813c63dffcbf7e45f75703fa905f50d697e41e4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/zero/ce_only/clean": (
        1,
        "7cee588d690bdd51ef04710db2f9f4edac9f8c8c379bfda5a0a840706d487534",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/zero/ce_only/heavy": (
        1,
        "bd3dfb534fa05b34bb90e668529027d695436deba08429d7446a9945a0233f8e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/zero/ce_only/noisy": (
        1,
        "c56fe6afdac312168658324e1ebd70f16e5ff9692aa7fff5a926629af6c62ce5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/zero/full/clean": (
        1,
        "200af132ebf1c1f406634838d2758613f109e516ce8094fb3715c2d31c0dce15",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/zero/full/heavy": (
        1,
        "669847b7217eef2a4e3b9aacbf2ea831e0bf33ef5d26635b7e8a21dba0e24ac0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc2003/zero/full/noisy": (
        1,
        "e8621698f30ac30ad98a5ab6d703dc1f4da12d984ad412002fd3f887f0e8b010",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/copy/ce_only/clean": (
        0,
        "79e53b365628d83806e040ff0a6bfc07c297c419578ec032edc59d069646206d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/copy/ce_only/heavy": (
        0,
        "0482d61b9b1d0725eed6f4e215952ba508e84a9251074b1306461e471f201461",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/copy/ce_only/noisy": (
        0,
        "3d998a8c88980e1ff18ab53631f1382a804bf2474b57680b7249cb1eca038269",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/copy/full/clean": (
        0,
        "1e2dcfaa56e1dc364c2e4ff01a45f00925fdc2ed9db514f9b234bc94e0716fd7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/copy/full/heavy": (
        1,
        "d4133918fd2465fab9ebe9f69ce77a114cccdc4a8080877aeeb1c1a82dc99a69",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/copy/full/noisy": (
        0,
        "f8c76def809c6672376b7b3be4c55f978bb462359ecccc6cf7e8894ca3380e58",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/copy/full/noisy/1x1": (
        0,
        "9d992614370d97b46a51fee68193f5c5daa815a7a76552b45121efa13db6f35e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/copy/full/noisy/8x10": (
        0,
        "aa485c4bdb3f941a8d6258bbe9d5ef98e808953a40c36766e4946bbe6b5944e9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/rfc3168full/ce_only/clean": (
        0,
        "2a3d3f37bb6a17e5cb6aa1e9b033c4fb0225bccd3f0c41e618d1cf5574be7a0d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/rfc3168full/ce_only/heavy": (
        0,
        "c59b746c31ac3921eb7b345608f5897714000a0cd33424295baecac9ef308582",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/rfc3168full/ce_only/noisy": (
        0,
        "6d3508fcfe806f47dd5eedc1e0e5280e1dc744095e838810ccf7079f262d018e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/rfc3168full/full/clean": (
        0,
        "993119da206c5e1586b3a5bd2cc09d6f335915e8b150f887cb48917fcad7ef73",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/rfc3168full/full/heavy": (
        0,
        "3a073b44ae06b6508413d53c2b6833694bb18f1696deb5157978d3656e47e7ff",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/rfc3168full/full/noisy": (
        0,
        "377a5bb7d1f99afa4b514da0cbdcae5d4952b8d9d03a084a1f58b0488694de49",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/zero/ce_only/clean": (
        0,
        "86f2ab5ace413e1d36827d46f608680394ae68a4c8ea943c3e9ddca33eaa990c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/zero/ce_only/heavy": (
        0,
        "d609afbf28c10f7da56331cb07098ccbcf062514a0f41f38609edda171f053d1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/zero/ce_only/noisy": (
        0,
        "3cba28ba2ded760e6fcf20ea94abb55b3e48a82ba1030bf7790431b45f190687",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/zero/full/clean": (
        0,
        "9facfe851d9e0604f9dafadc233842e0544e0a831a20876a1f72364ba78fa5f8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/zero/full/heavy": (
        1,
        "10fbb87eca89d7c911ae2f0a10b441f69ef6176f2e538a56a2f4b2862cd50e12",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc3168/zero/full/noisy": (
        0,
        "c931cd834ada7cafc8ef50e95e129514124a01f2bb0f67c8281fd2e17af6550e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/copy/ce_only/clean": (
        0,
        "dbbafe064705f1a5a8705f5b80ee5a8a59bc5be6bd03321acf85698ae3a5b90f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/copy/ce_only/heavy": (
        0,
        "7536470099b040175574440febe53485683034e8db13fff8cb45add22c914e86",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/copy/ce_only/noisy": (
        0,
        "c5164084383d3bce1ac579c4d8bba3587d2242c7ea510e171abf8c70aab70594",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/copy/full/clean": (
        0,
        "be25867e4ee9a9ef27e5a5ebe81f61cae65335fdb442f3c5f3065201924ffec5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/copy/full/heavy": (
        1,
        "da2482ec23088cc6b9b1bba3c20e7d403738459c9a470e999ee5319dc7a41fa8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/copy/full/noisy": (
        0,
        "cf052a1e4a06b2e805900e131cdebfd3fb7a4337f0dadc113e806d670e1b3b4f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/copy/full/noisy/1x1": (
        0,
        "e3a88fcb997b2fe14357c2af104a3fd2affe69b5a092fc1eaeb610bf98b3e09e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/copy/full/noisy/8x10": (
        0,
        "1f0598468db8c75c0fd063e31f9bd64acf70c2420a9f21644be921c1174a792b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/rfc3168full/ce_only/clean": (
        0,
        "965488d473cc86f670ade1ca370d394712a241e135a4f97892822ccf3ec45228",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/rfc3168full/ce_only/heavy": (
        0,
        "376fd81453dddf3c79c02a9deb4559685efb4d16887d66998cd318fa39633882",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/rfc3168full/ce_only/noisy": (
        0,
        "296dc9f8dd1f9929684626dc17efef21bcf342fc6600b2424b0c4702ab7b8815",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/rfc3168full/full/clean": (
        0,
        "2c47863665619b748ba5bf5953de56ae32beb47d7e1d8e5dcb0187a4aa7b4c52",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/rfc3168full/full/heavy": (
        0,
        "cdf51d3669a167d9d3acceb1e5a2a69c4c4f16348a0f3a57e5e0c5d70466877a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/rfc3168full/full/noisy": (
        0,
        "31c941f6f3de5cb81180918ab72e5ced098bff398ab143eac6fba7f56a636776",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/zero/ce_only/clean": (
        0,
        "9d8929255ab4899361c3ef30aceea2bcd1dc2f25867950e4bd13a5326cf965c4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/zero/ce_only/heavy": (
        0,
        "91182e4f2f9112c8ebf001770f82787519baea9a0874c2e6919baa78432706eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/zero/ce_only/noisy": (
        0,
        "7db7463e6f48a350f2d8408d2330d8695c2543a740bd4921640ec334249d50e9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/zero/full/clean": (
        0,
        "bdc25973fc6e381a3815250fc18bfd10c4afb50444120b945e57c678c8d74538",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/zero/full/heavy": (
        0,
        "3c748a1f8abecaa22acfcdc085779a5b75f80c54127b53f4518f622c26fb6884",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc4301/zero/full/noisy": (
        0,
        "32f1d9fad798622ae73add25526fe9ad33bbd9843c5271faa7141e41eb38c97f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/copy/ce_only/clean": (
        0,
        "6ee45dd28cfa895cef7a035b2483d70f5169c0b1a21d7e4111ae3ef0f2a507ee",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/copy/ce_only/heavy": (
        0,
        "2759d9876d4794c5610babd52892f96deeb12b56b39a440689d7aaea142ee066",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/copy/ce_only/noisy": (
        0,
        "fb3ee3ee51a48ccd37a77760e5f65f7f75f65242fd3bde21de926baaed4da935",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/copy/full/clean": (
        0,
        "043af868b9abde58690e7d8af93c7ec6ddec3489a27838bd0f092a01173c5021",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/copy/full/dead": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "259184edade28883b61fa20c98da5a21cfc50f7eae382b16511d2d1c1d051e9c",
    ),
    "probe/rfc6040/copy/full/heavy": (
        0,
        "7eed19ef95c32824e999a911f113c0a19cc181c52347b3c22079fad544b4cff1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/copy/full/noisy": (
        0,
        "f057a153cf1e7efd79f41789c582b203bc5bc396a752c3efd4103ba3c004d86d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/copy/full/noisy/1x1": (
        0,
        "4b51789f8d9bdb9a79972efbc23882fa6571272f87edcf292fe5b5e298db045b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/copy/full/noisy/8x10": (
        0,
        "d0bb14d8595024b970d2ba555b04cc8225e48a2244b45adbc198932e0ad22829",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/rfc3168full/ce_only/clean": (
        0,
        "100ed94094181bcd16454222f5e64a3dd8dd879633049094da5f1e6e00bdfba0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/rfc3168full/ce_only/heavy": (
        0,
        "f6eaf986692ed4b66476dbed3246ddcebfd75cc4a058e339803564bdfc5ab7a2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/rfc3168full/ce_only/noisy": (
        0,
        "93f9e318239802f2272f458a82549569bb37529000b0ffd39203b33f09ff8f95",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/rfc3168full/full/clean": (
        0,
        "5ad8353952fd998a02ad91f0ec91d84abb1be453fb3776a85f5ce9d1853515ef",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/rfc3168full/full/heavy": (
        1,
        "910e099614d4992fbf2456f7f316a144e3b17bde7b1b5d987ee12525f2ec1d00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/rfc3168full/full/noisy": (
        0,
        "6cbaf31964cd9c45ad187074ab356249136d9192fe130f021ea47be8804b2e92",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/zero/ce_only/clean": (
        0,
        "914993bb4f2ac2ea53622141700363403df1e65e9c4241873fe1e93c5f0d74ef",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/zero/ce_only/heavy": (
        0,
        "e9162c67eff770298d0da4d0efaba0c0a714326dbacd4ed23393adb83857df25",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/zero/ce_only/noisy": (
        0,
        "78c7ef55a87054be492fdb1645447de370f7a2f4170d640d92451afd9f443f3c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/zero/full/clean": (
        0,
        "2f78d0ce73b6c554d68c728dc3cb6d6d52f61737aca67969282672d65c515a56",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/zero/full/heavy": (
        0,
        "931e05161b8c6dd47bca149ca9625576982aaea662d6c68a83d81517a7c95f2d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "probe/rfc6040/zero/full/noisy": (
        0,
        "87295a6859c632bf8b15bb756e1ae5792521c5ce4c2ffb6b3296277f146055f1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "selftest": (
        0,
        "10c3466dbf40bdd96fad833868e942f825fc20d4769277618330b0e0bfaa6959",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "selftest/seed-7": (
        0,
        "10c3466dbf40bdd96fad833868e942f825fc20d4769277618330b0e0bfaa6959",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "tables": (
        0,
        "9e7077aa326a9690c61085a77628b07689d863b060ba2f555186ca0d977f1878",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "usage/bad-selftest-seed": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "edbf95c9e711cedc20f1531de6fa004c5efba96aa4c48dd41ccb402b82eb5369",
    ),
    "usage/json-is-config": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "338f03e773c89186cb76733624b67c3926466da1957b199655a8fd3d4e02ee41",
    ),
    "usage/json-is-trace": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c9e2536f7f501949dde13e377b42d3685a718e103c48a988d3527945bc7fb345",
    ),
    "usage/no-command": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ac205d6c4c87288dd48a440986e1a2213f5d396784656aa105cd74c13c449db3",
    ),
    "usage/probe-without-config": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "09b9c16f7cbe61ab2af9d98e7bbbd16e28c33f15ac38dfc9eb84ed2ca4a18377",
    ),
    "usage/trace-is-config": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e97a379d00baf2d5ed62a899c32e6f706fb683b5ffaf17ee30e7fd4ee0be4cee",
    ),
    "usage/unknown-command": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "822a1d26e5ff0257bec923ac6989c532a44b1099710a12b2172c3f494da16ca7",
    ),
    "usage/unknown-flag": (
        64,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f26654a873d2f14b8c4fa386dfea15308f678d7e6fe6d18cb38b1b7f5b3c41ee",
    ),
    "version": (
        0,
        "763649187dddedff49a8c6ca8fcd164dd94bd55636672a446a64cb36593e408d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def test_golden_covers_every_config():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_probe_output_matches_golden(key, tmp_path, capsys):
    got = probe_hashes(tmp_path, key)
    capsys.readouterr()
    assert got == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(CLI_RUNS))
def test_cli_output_matches_golden(key, tmp_path):
    assert cli_hashes(tmp_path, key) == GOLDEN_CLI[key]


def test_golden_cli_covers_every_run():
    assert sorted(GOLDEN_CLI) == sorted(CLI_RUNS)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    def quoted(digest):
        return "None" if digest is None else f'"{digest}"'

    def print_table(name, keys, hashes):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"{name} = {{")
            for n, key in enumerate(keys):
                directory = Path(tmp) / str(n)
                directory.mkdir()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code, first, second = hashes(directory, key)
                print(f'    "{key}": (\n        {code},\n        {quoted(first)},\n        {quoted(second)},\n    ),')
            print("}")

    print_table("GOLDEN", sorted(CONFIGS), probe_hashes)
    print()
    print()
    print_table("GOLDEN_CLI", sorted(CLI_RUNS), cli_hashes)
