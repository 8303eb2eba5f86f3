"""Byte-level pins of the property-suite reports at non-default scopes.

Each digest is the sha256 of the exact bytes ``bevo`` writes, so any drift in
scope strings, instance counts, sampled streams or violation order fails here.
The default scopes are pinned by the benchmark (``perfbench/pinned.json``).

With the package's own operators every report passes, so the command-line
digests pin little beyond the summary line.  To pin which instances are
drawn and in which order violations are listed, the second half swaps the
iterated revision the suites call for deliberately broken operators; between
them they violate each of L2, L3, L4*, L5*, L6*, L7 and DP2, DP4, REC.
The last three tests give the AGM and interaction suites rankings that are
not faithful, so that their violation lists, sampled streams included, are
pinned too.
"""

import hashlib
import json

import pytest

import bevo.postulates as postulates
from bevo import Ranking, iterated_revise, revise
from bevo.cli import main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Command-line output.


def _cli_cases():
    out = [
        ["check", "--suite", "lehmann", "--fluents", "1"],
        ["check", "--suite", "dp", "--fluents", "1"],
        ["check", "--suite", "i1i2", "--fluents", "1"],
        ["check", "--suite", "interaction", "--fluents", "1"],
        ["check", "--suite", "interaction", "--fluents", "3", "--samples", "500", "--seed", "1"],
        ["check", "--suite", "agm", "--fluents", "2"],
        ["counterexample", "lehmann"],
    ]
    for suite in ("lehmann", "dp"):
        for fluents, seed in (("2", "0"), ("2", "5"), ("3", "1"), ("3", "9")):
            out.append(
                ["check", "--suite", suite, "--fluents", fluents,
                 "--samples", "500", "--seed", seed]
            )
    return [" ".join(argv) for argv in out]


CLI_DIGESTS: dict[str, tuple[str, str]] = {
    "check --suite lehmann --fluents 1": (
        "f12265beef8975c0002d6913add5dcd8f37d8fcca3e90592a0a4646a5bc75e9f",
        "c4b8caa80c48e6cb51e58fbb117da8b408a2d805c425127bcda95a380508e31f",
    ),
    "check --suite dp --fluents 1": (
        "c81dbef2e9cf9d4a9a97cfc63243ca1b12ac31696d886e4faa568f27613e423b",
        "8a241d85b123bd3d35699110bca189d23872dd36d83e9a869223c54e14de13b8",
    ),
    "check --suite i1i2 --fluents 1": (
        "3db55f291c94ac3399d67d0c04436eacda6c1d345230d0f4c87fce94fe930a67",
        "7ad32b94e0792dba2ae6b80c4cd0b2fb2e1c8c3faac68d9b0b73231bc5f68972",
    ),
    "check --suite interaction --fluents 1": (
        "f671b2bde3c1d27a17ac589fd212cfa36ffb886a57fdc8457a6e7d853426b676",
        "54681aa6af6fb883719e018fe9feeb8dbe6922efddd3aa09c4e792e5052fbc94",
    ),
    "check --suite interaction --fluents 3 --samples 500 --seed 1": (
        "1673fecd3778d9132b612f77e82a069dec9d07c26e0b3bef428bc8b4ac84fcdb",
        "43e8efe6705d85d1067b968592f09a77aecdeda49d8c023abbadfeb228a14adc",
    ),
    "check --suite agm --fluents 2": (
        "dcc6012a5842bae104ebc107b46974fb986d5e05dbf07863be7c5fecc32911ba",
        "f62653ac866c45f1a6959cbfb0f5e393c274352babc290dbfce2d9d5d4b348e7",
    ),
    "counterexample lehmann": (
        "b3259a9afb47c37996cfb0950a43a2f73af21452042ac41a8ae35122fcb97e10",
        "aebcf3406558bce447a75ea0e09896784e2da3ec532747855eed326c3fe1cd47",
    ),
    "check --suite lehmann --fluents 2 --samples 500 --seed 0": (
        "c1160ab656ab773cbdb5ca2d7240575dd83dc6e939ee1e308765a52bde9bd918",
        "809c3705a40ae93c7ff215f0235d277774cf69334fb6ae796f267722d7e9f3b8",
    ),
    "check --suite lehmann --fluents 2 --samples 500 --seed 5": (
        "1c947faebbd7d39e75ee1069c111a7f256c9178b8c233ca9ebc9120e2d15e535",
        "b9ef407ffdd6248e0616eb24d69ecff09fb83ab9372e3f7ecf99c47708caed05",
    ),
    "check --suite lehmann --fluents 3 --samples 500 --seed 1": (
        "a7c8ff0a9241b1d3d6220dcf8d1493a04d0fde1f66b700c2cba67f2b4b076bc7",
        "bfe8a0cc6de3a36da0fab93c59535e74a9b2c5f7f84c56a24a7ec24be7468f14",
    ),
    "check --suite lehmann --fluents 3 --samples 500 --seed 9": (
        "fe40a75bba627477ffa6559d64283491fb1f5fc3f672c26e6e04e4185e7bf911",
        "0d230e3b291a9a6afe46abbf4eb014ef77ce0456e87073f6d545bc10eeb379bd",
    ),
    "check --suite dp --fluents 2 --samples 500 --seed 0": (
        "2468a9c34444a7bb939f2c0e08b7ac2d4771e5671f7bbd5c160b8f9274a8d009",
        "02e9b299f0ffaf6fc2585ad932a82a12050937b9e8b1fd0de65eb42dc67ccc07",
    ),
    "check --suite dp --fluents 2 --samples 500 --seed 5": (
        "bc36b43b0be72083ba277cfacee3909e3d86fae4d7b9431ec4853a047223dbac",
        "eef828c868d537fb2272ba2608cc32ebe07cdb3d21d1f0815ecc3346a5961214",
    ),
    "check --suite dp --fluents 3 --samples 500 --seed 1": (
        "076131a22282088c1e98abe14d7c89dfebb906c9dbeeeb84ad98ac32584754ec",
        "c4646dd7577edc86b767c0acbefe3a14ebc228694bb3a8b5b649883d6a28fbc3",
    ),
    "check --suite dp --fluents 3 --samples 500 --seed 9": (
        "b2b07b4a39e87d5c0022cba7b22285b47da5ef6ea905da0c9c7acd07c4b4ecbd",
        "4a9c8e80456ac64ca8f0848cf1c7afbb7eb34f39467f45e8e4840071e87d8a65",
    ),
}


@pytest.mark.parametrize("command", _cli_cases())
def test_cli_output_digest(command, capsys):
    got = []
    for fmt in ("machine", "text"):
        code = main(command.split() + ["--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        got.append(_sha(captured.out))
    assert tuple(got) == CLI_DIGESTS[command]


# ---------------------------------------------------------------------------
# Reports under broken iterated-revision operators.


def _primacy(n):
    return tuple(range(n))


def _oldest_first(kappa, seq, sig, assign=None):
    """Evolution that trusts the oldest observation most."""
    return iterated_revise(kappa, seq, sig, assign, _primacy)


def _last_only(kappa, seq, sig, assign=None):
    """Forgets everything but the last observation."""
    return revise(kappa, seq[-1], assign)


def _two_shot(kappa, seq, sig, assign=None):
    """Plain revision by each observation in turn."""
    for obs in seq:
        kappa = revise(kappa, obs, assign) or kappa
    return kappa


def _believe_last(kappa, seq, sig, assign=None):
    """Cheap enough to drive lehmann's 20,000-sample default at three fluents."""
    return seq[-1]


_OPERATORS = {
    "oldest_first": _oldest_first,
    "last_only": _last_only,
    "two_shot": _two_shot,
}

_SCOPES = (("1", None, 0), ("2", 400, 3), ("3", 400, 4))


def _report_cases():
    out = []
    for op in _OPERATORS:
        for suite in ("lehmann", "dp"):
            for fluents, samples, seed in _SCOPES:
                out.append(f"{op} {suite} {fluents} {samples} {seed}")
        out.append(f"{op} counterexample")
    out.append("believe_last lehmann 3 None 0")
    return out


REPORT_DIGESTS: dict[str, tuple[str, int]] = {
    "oldest_first lehmann 1 None 0": (
        "0070d356a83b5a35d9f81f91ece0afb9c9a11824faeaec51c16cb5a0b33f135c",
        42,
    ),
    "oldest_first lehmann 2 400 3": (
        "5ac6a462bdf7c9dbe14ab814c59b1a70cb824f4d8058f04345a6e6ff5c95b4c4",
        61,
    ),
    "oldest_first lehmann 3 400 4": (
        "660f7c93735ac5818eba4a1dc89d23437b83fb041c7d89e34696324a893f9cc1",
        88,
    ),
    "oldest_first dp 1 None 0": (
        "7865b5646d992ce568dc506499955d8df1d4892e65bf8e567018fd6975da0d66",
        6,
    ),
    "oldest_first dp 2 400 3": (
        "670593612385c119fb625a589ae98bea4b7a8df4658a28f88c3039cc162ee425",
        94,
    ),
    "oldest_first dp 3 400 4": (
        "b4e350a7961ada3b33cbc8b1af100cab95dbd23e9d362fc306901e364029d273",
        37,
    ),
    "oldest_first counterexample": (
        "7a6617a39ab05a9b54ff678f5480bcbaac34945c4eb07d3826fe175f1d9d26bb",
        0,
    ),
    "last_only lehmann 1 None 0": (
        "ea8edab52e6247082827f1087ffdcb71ba4ef30cdfe0faab4e4309d9c59e2c28",
        40,
    ),
    "last_only lehmann 2 400 3": (
        "69dd8223681a89aea3eb0e50701fc38261654b0c5825ae1c179504c9bd89c8ec",
        29,
    ),
    "last_only lehmann 3 400 4": (
        "3a6f32060ed229d40d0759dd0f179d4d7840e4e3518e5394034fda4461906814",
        39,
    ),
    "last_only dp 1 None 0": (
        "0ea89efbf29b2c1548f61bb94216bcb9da96e0968ea1d8e7c2748ef1113f3dd6",
        4,
    ),
    "last_only dp 2 400 3": (
        "108d946db1f1cc1876243dccb513b9a30c5bde810b4706563fe5b7fc6f01d7d8",
        140,
    ),
    "last_only dp 3 400 4": (
        "138aebe0bdbb66bdcad22fa991d69b07bf210183e62aed4b63f30b0ca08ce983",
        270,
    ),
    "last_only counterexample": (
        "c84c1f4d1b357b6414517bb01943a50f3f2ab29896efa745f92047774d4024bd",
        2,
    ),
    "two_shot lehmann 1 None 0": (
        "6954337bf4af4de3cacc6fd6e44838bbcc3d4059f58ef9261a2a4e98fd2fcbb6",
        0,
    ),
    "two_shot lehmann 2 400 3": (
        "79a8fe65f65e8bc7169e9e111a5e245919b8112050c1b0ee0c37dcd3652e4d07",
        9,
    ),
    "two_shot lehmann 3 400 4": (
        "bf9c0518541e3cf02e0fa4a8d9317adbbb5f9c2eed920ba0a62368e81c9db351",
        33,
    ),
    "two_shot dp 1 None 0": (
        "e4fe42e70cf3104908737eb9396272f012c95b12c1767dc5cb8e6460aa74260f",
        0,
    ),
    "two_shot dp 2 400 3": (
        "74dbd177ca57f04bf4a36df5efb9b93dd038f698e6b8d49febe35ecc345c5d10",
        53,
    ),
    "two_shot dp 3 400 4": (
        "5526ffa2b10151e308503bad1d3385395da1c033c0b6a0f7e1b0988e1575f11b",
        87,
    ),
    "two_shot counterexample": (
        "9e38cd75b846522e8e394ab7d2497caf78cd34db5f6b1590b1121b4f570c4a98",
        0,
    ),
    "believe_last lehmann 3 None 0": (
        "1f66d4f7cc393a4a8289e5dbc84c29f52241c1ae3869c8782052bb35e62f0bde",
        3049,
    ),
}


@pytest.mark.parametrize("case", _report_cases())
def test_report_digest_under_broken_operator(case, monkeypatch):
    op, what, *scope = case.split()
    operator = _believe_last if op == "believe_last" else _OPERATORS[op]
    monkeypatch.setattr(postulates, "iterated_revise", operator)
    if what == "counterexample":
        rep = postulates.lehmann_counterexample()
        text = rep.render_text()
        n_violations = len(rep.failed)
    else:
        fluents, samples, seed = scope
        rep = postulates.run_suite(
            what, int(fluents), None if samples == "None" else int(samples),
            int(seed),
        )
        text = rep.render_text()
        n_violations = len(rep.violations)
    machine = json.dumps(rep.to_data(), indent=2)
    assert (_sha(machine + "\n" + text), n_violations) == REPORT_DIGESTS[case]


def test_agm_digest_under_flat_ranking():
    sig = postulates.suite_signature(2, with_action=False)

    def flat(kappa):
        return Ranking(((1 << sig.num_states) - 1,))

    rep = postulates.check_agm(flat, sig)
    machine = json.dumps(rep.to_data(), indent=2)
    assert (_sha(machine + "\n" + rep.render_text()), len(rep.violations)) == (
        AGM_FLAT_DIGEST
    )


AGM_FLAT_DIGEST = (
    "5d5fed6d523b5a15f114ecc9d709b0386906f03681ac914edcbb43521360f9b9",
    110,
)


def test_interaction_digest_under_unfaithful_ranking():
    # Ranks the all-false state above the other whatever kappa is.
    def unfaithful(kappa):
        return Ranking((0b10, 0b01))

    rep = postulates.run_interaction_suite(fluents=1, assign=unfaithful)
    machine = json.dumps(rep.to_data(), indent=2)
    assert (_sha(machine + "\n" + rep.render_text()), len(rep.violations)) == (
        INTERACTION_UNFAITHFUL_DIGEST
    )


INTERACTION_UNFAITHFUL_DIGEST = (
    "a51676267bffec2f87d47fe8f54817936a06c42ed967dae1c8e51efddf3312b3",
    48,
)


def test_interaction_digest_sampled_under_flat_ranking():
    # Every state equally plausible, so the sampled stream has violations.
    sig = postulates.suite_signature(2)

    def flat(kappa):
        return Ranking(((1 << sig.num_states) - 1,))

    rep = postulates.run_interaction_suite(fluents=2, samples=2000, seed=4, assign=flat)
    machine = json.dumps(rep.to_data(), indent=2)
    assert (_sha(machine + "\n" + rep.render_text()), len(rep.violations)) == (
        INTERACTION_SAMPLED_FLAT_DIGEST
    )


INTERACTION_SAMPLED_FLAT_DIGEST = (
    "dc5e4ee00cfd90008b51073d1843b07110583514ab25b19f06f4238db4c54a77",
    628,
)
