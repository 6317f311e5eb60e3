import csv
import hashlib
import json
import subprocess
import sys

import pytest

import bjorth as bj
from bjorth import cli
from bjorth.cli import load_space, main
from bjorth.errors import InvalidExponent, ParseError

from conftest import dispatch_envs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Space loading.


def test_load_space_compact_and_json(tmp_path):
    assert load_space("dayjames:3:1.5") == bj.DayJames(3.0, 1.5)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"type": "inf_sum", "parts": [
        {"type": "lp", "dim": 2, "p": 2.0}, {"type": "linf", "dim": 3}]}))
    s = load_space(str(path))
    assert isinstance(s, bj.InfSum) and s.dim == 5


def test_load_space_errors():
    with pytest.raises(InvalidExponent):
        load_space("lp:2:0.5")
    with pytest.raises(ParseError):
        load_space("wat:1:2")


# ---------------------------------------------------------------------------
# Verbs and exit codes.


def test_check_mutual_pair(capsys):
    code, out, _ = run(capsys, "check", "--space", "dayjames:3:1.5",
                       "--x", "1,1", "--y", "1,-1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "orthogonal"
    assert "mutual: yes" in out


def test_check_non_orthogonal_exits_one(capsys):
    code, out, _ = run(capsys, "check", "--space", "lp:2:2",
                       "--x", "1,0", "--y", "1,1")
    assert code == 1
    assert "strictly-acute" in out


def test_check_zero_vector_is_orthogonal_both_ways(capsys):
    code, out, _ = run(capsys, "check", "--space", "dayjames:3:1.5",
                       "--x", "0,0", "--y", "1,0")
    assert code == 0
    assert out.splitlines()[1:] == ["degenerate", "reverse: orthogonal", "mutual: yes",
                                    "bounds: 0 0", "scale: 0", "margin: 1.0000000000000001e-09"]


def test_check_prints_the_forward_witness_in_17_digits(capsys):
    code, out, _ = run(capsys, "check", "--space", "lp:2:2", "--x", "3,4", "--y", "1,1e-3",
                       "--margin", "0.25")
    assert code == 1
    rel = bj.classify_angle(bj.Lp(2, 2.0), [3, 4], [1, 1e-3], 0.25)
    assert out.splitlines()[1:] == [
        "strictly-acute", "reverse: strictly-acute", "mutual: no",
        f"bounds: {rel.min_bound:.17g} {rel.max_bound:.17g}", f"scale: {rel.scale:.17g}",
        "margin: 0.25"]
    assert rel.min_bound == float(out.splitlines()[4].split()[1])  # 17 digits round-trip


@pytest.mark.parametrize("argv", [
    ["--x", "nan,1", "--y", "1,0"],
    ["--x", "1,0", "--y", "1,inf"],
    ["--x", "1,1", "--y", "1,-1", "--margin", "nan"],
], ids=["nan-x", "inf-y", "nan-margin"])
def test_check_non_finite_input_exits_two(capsys, argv):
    code, out, err = run(capsys, "check", "--space", "dayjames:3:1.5", *argv)
    assert code == 2
    assert "error:" in err and "finite" in err
    assert "orthogonal" not in out


def test_check_bad_space_exits_two(capsys):
    code, _, err = run(capsys, "check", "--space", "lp:2:0.5",
                       "--x", "1,0", "--y", "0,1")
    assert code == 2
    assert "error:" in err and "usage" in err


def test_radon_asymmetric_plane_exits_one(capsys, tmp_path):
    out_csv = tmp_path / "radon.csv"
    code, out, _ = run(capsys, "radon", "--space", "lp:2:3", "--grid", "64",
                       "--out", str(out_csv))
    assert code == 1
    assert "witness:" in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "theta,theta_star,forward_residual,reverse_deficit"


def test_radon_dayjames_exits_zero(capsys):
    code, out, _ = run(capsys, "radon", "--space", "dayjames:3:1.5", "--grid", "64")
    assert code == 0
    assert "defect:" in out


def test_radon_non_smooth_plane_exits_two(capsys):
    code, out, err = run(capsys, "radon", "--space", "linf:2", "--grid", "16")
    assert code == 2
    assert "error:" in err and "smooth" in err
    assert "defect:" not in out


def test_smooth_verb(capsys):
    code, _, _ = run(capsys, "smooth", "--space", "lp:2:2", "--samples", "50")
    assert code == 0
    code, _, _ = run(capsys, "smooth", "--space", "linf:2", "--samples", "50")
    assert code == 1


def test_preserver_build_writes_the_certify_table(capsys, tmp_path):
    # One path per artifact: the verb's table is the one certify writes.
    path = tmp_path / "eta.csv"
    code, out, _ = run(capsys, "preserver-build", "--target", "dayjames:3:1.5",
                       "--grid", "256", "--out", str(path))
    assert code == 0
    assert "nodes: 257\n" in out and "endpoints: 1.5707963267948966 3.1415926535897931\n" in out
    assert main(["certify", "--fast", "--seed", "0", "--out", str(tmp_path / "certify")]) == 0
    capsys.readouterr()
    assert path.read_bytes() == (tmp_path / "certify" / "eta_dayjames_3.csv").read_bytes()


@pytest.fixture(scope="module")
def eta_csv_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("eta") / "eta.csv"
    assert main(["preserver-build", "--target", "dayjames:3:1.5", "--out", str(path)]) == 0
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("column", range(3), ids=["theta", "eta", "residual"])
@pytest.mark.parametrize("index", [0, 500, 1024])
def test_eta_csv_carries_every_cell_exactly(eta_csv_rows, column, index):
    # The artifact holds the certificate's floats bit for bit, the pinned
    # endpoints included, under a header, one row per node.
    assert eta_csv_rows[0] == ["theta", "eta", "residual"] and len(eta_csv_rows) == 1026
    expected = bj.pairing_table(bj.DayJames(3.0, 1.5), 1024)[index][column]
    assert float(eta_csv_rows[index + 1][column]).hex() == expected.hex()


def test_preserver_verify_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "preserver-verify", "--target", "dayjames:3:1.5",
                       "--grid", "128", "--samples", "200", "--seed", "7",
                       "--out", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["pass"] is True
    assert report["seed"] == 7
    assert report["samples"] == 200


def test_sections_verb(capsys, tmp_path):
    path = tmp_path / "sections.json"
    code, out, _ = run(capsys, "sections", "--space", "sum(lp:2:2,linf:1)",
                       "--candidates", "50", "--pair-samples", "16",
                       "--seed", "3", "--out", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert 0 in report["flagged"]


def test_sum_acute_verb(capsys):
    code, out, _ = run(capsys, "sum-acute", "--x-space", "lp:2:2",
                       "--y-space", "linf:1", "--samples", "300", "--seed", "5")
    assert code == 0
    assert "disagreements: 0" in out


def test_orthograph_verb(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    code, out, _ = run(capsys, "orthograph", "--space", "lp:2:2",
                       "--angles", "0,0.7853981633974483,1.5707963267948966,2.356194490192345",
                       "--out", str(path))
    assert code == 0
    assert path.read_text() == "0 2\n1 3\n"


def test_circle_csv(capsys, tmp_path):
    path = tmp_path / "circle.csv"
    code, out, _ = run(capsys, "circle", "--space", "dayjames:3:1.5",
                       "--grid", "16", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,x,y"
    assert len(lines) == 17


def test_usage_error_exits_two(capsys):
    assert main(["radon"]) == 2
    assert main(["not-a-verb"]) == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert bj.__version__ in out


def test_artifacts_are_byte_identical_across_runs(capsys, tmp_path):
    args = ["preserver-verify", "--target", "dayjames:3:1.5", "--grid", "128",
            "--samples", "100", "--seed", "13"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(["circle", "--space", "lp:2:3", "--grid", "32", "--out", str(c)]) == 0
    assert main(["circle", "--space", "lp:2:3", "--grid", "32", "--out", str(d)]) == 0
    capsys.readouterr()
    assert c.read_bytes() == d.read_bytes()


def test_outdir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BJORTH_OUTDIR", str(tmp_path))
    code, _, _ = run(capsys, "circle", "--space", "lp:2:2", "--grid", "8",
                     "--out", "rel.csv")
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


# ---------------------------------------------------------------------------
# The certification sweep.

CERTIFY_ARTIFACTS = sorted(
    [f"radon_{label}.csv" for label in ("dayjames_1.5", "dayjames_2", "dayjames_3",
                                        "dayjames_4", "lp_1.5", "lp_3", "lp_4")]
    + ["eta_dayjames_3.csv", "circle_dayjames_3.csv", "preserver_dayjames_3.json"]
    + [f"preserver_sum_linf{n}.json" for n in (1, 2, 8)]
    + ["sum_acute_l2_linf1.json", "sum_acute_dj3_linf2.json",
       "sections_l2_linf1.json", "sections_dj3_linf1.json",
       "orthograph_dayjames_3.txt", "summary.json"]
)


# SHA-256 of each `certify --fast --seed 0` artifact, recorded with numpy
# 2.4.6 on x86-64.  Refactors must keep them; a deliberate change to an
# artifact updates its digest here and says why.  The two sum_acute digests
# moved when the reports began to name their max-sum space.  The eta table,
# the Radon scans, the preserver reports and summary.json moved in their
# last bits when the pairing became closed-form.  The preserver and
# sum-acute reports moved again when the samples moved to the block draw
# table and the reports gained first_disagreement.  The preserver reports'
# floats moved in their last bits when the plane map became the table-free
# perp map; every verdict and count kept its value.  The eta table's
# residual column moved when it became the Radon scan's forward residual,
# with the axes' own rows at the ends; its theta and eta columns kept
# their bits.
CERTIFY_SHA256 = {
    "circle_dayjames_3.csv": "ac4ca594efa803796a82b3d42ca128c0f4b5f60afddeb90c70dad02dd294465a",
    "eta_dayjames_3.csv": "f46c74b9a8377dd4f2c097fc624be54376d38da6c6fc7c7a079295ddbf253481",
    "orthograph_dayjames_3.txt": "3d98f0352f0624f54b301dee7b634cda8716062f18cdeffeb92eeb07a23f6073",
    "preserver_dayjames_3.json": "34cfaf7e5495975c04bd3b45a07f815dd6fbb3358a08e9961f8f220b876a4298",
    "preserver_sum_linf1.json": "a7bcaeca45360ace27623d7a1a1565df485b4cd76d63c2a13d2bc41e34c9b5b5",
    "preserver_sum_linf2.json": "e20c0567b1bb56943cb930c14f3a4137297b0313b1b2a1bafc091791846cc6bc",
    "preserver_sum_linf8.json": "01f7fedf9f9ba3a25a2bb3c672e9c1089e0e7e4b01b2ec78477edf5daf326ad5",
    "radon_dayjames_1.5.csv": "391d379b9db500be3c0094b20866eb431819bdf2c80fda0d3439878ae12e4da1",
    "radon_dayjames_2.csv": "98968c2f31257d64f229041464ed1959137b22f769e143f0854c3ff5f3651f56",
    "radon_dayjames_3.csv": "e82c1f8f5d31961fbdb042905f5974fedd7dc1beb859b8b8600c0a5c167b6f20",
    "radon_dayjames_4.csv": "a55b6a7e2d03e9b1fb28861c9002eb1f7e95d158a8591d94b7b9d9813341de52",
    "radon_lp_1.5.csv": "95cc16d94fbae0b0976ab3da6a94fadc13a75016fab9dd21664804d0d3160b0b",
    "radon_lp_3.csv": "3b8887a4daf93a83d95bb15f0ce0a28da2ef6f88b2332b67d00dc76ef807d828",
    "radon_lp_4.csv": "450928c683b6aa8f31fcd25eed85f2f6568d65a69ec2d0b8dd16c5581bcf1e66",
    "sections_dj3_linf1.json": "d08eb58e139733e5b58b65ddd284bf090bb185b52e2c778967352ddd8d175b4f",
    "sections_l2_linf1.json": "c8a74b96ad9ef9ef092ea48d9b5096f5a1697108fa5f5dc2d375c9e68f646ab0",
    "sum_acute_dj3_linf2.json": "9b763ed1ba2102d2979b3d2b204f00a11f5a531051024707d06bb30751d0bf19",
    "sum_acute_l2_linf1.json": "8a16a10537f14aabcee0ce20b4120bfce883317c277f3087206340fbe13f5adc",
    "summary.json": "3b813296d51b49ec32b8ccb4be71d20108cf0c1ae355fc7ddff6e9d9834f7ef7",
}


# The same for `certify --fast --seed 7`.  The Radon scans, the pairing
# table, the unit circle and the orthograph draw no samples, so only the
# seeded artifacts differ from seed 0.  The preserver digests moved with
# seed 0's when the plane map became the table-free perp map.
CERTIFY_SHA256_SEED_7 = {
    **CERTIFY_SHA256,
    "preserver_dayjames_3.json": "44c4af18012e91b8accf083e2ad18451ef84bf012252d3c2cd5483194728abf6",
    "preserver_sum_linf1.json": "7a91bee115f1116cdb005cda7fb7fd2d65ac9c9a30852e08f269b473d8948ba4",
    "preserver_sum_linf2.json": "ea38e5d1b8a4d4192f23095c95123b53cb9adc60a4ce4dc9e4a0a4845fd65018",
    "preserver_sum_linf8.json": "f27df7dc3295a19ea8495a835f4e791272775299496b878a1b240c9d53bf0180",
    "sections_dj3_linf1.json": "ef2336c64932e73a91d9b1c19e3cbd9dc07fe61d01b7c565d3d86beec1c68225",
    "sections_l2_linf1.json": "398f949079ccc2512380ef7a29ac0d6f430816f7649f1cf3ee71617fea2a1efb",
    "sum_acute_dj3_linf2.json": "1067de921b7d05158c274207e3b698524e9c28efc4389704567f7e5c45a80a03",
    "sum_acute_l2_linf1.json": "87442e6badede9b1e1f1859c3b8c904ca4660a1f1cde6cce049f5b70acf5b667",
    "summary.json": "60e20af6ee310fa54f28eba368786b8ebd8a487cdbd48d5c770240500430531f",
}


def test_certify_artifacts_are_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["certify", "--fast", "--seed", "0", "--out", str(a)]) == 0
    assert main(["certify", "--fast", "--seed", "0", "--out", str(b)]) == 0
    capsys.readouterr()
    assert len(CERTIFY_ARTIFACTS) == 19
    assert sorted(CERTIFY_SHA256) == CERTIFY_ARTIFACTS
    assert sorted(p.name for p in a.iterdir()) == CERTIFY_ARTIFACTS
    assert sorted(p.name for p in b.iterdir()) == CERTIFY_ARTIFACTS
    for name in CERTIFY_ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert hashlib.sha256((a / name).read_bytes()).hexdigest() == CERTIFY_SHA256[name], name


def test_certify_artifacts_match_the_pinned_digests_at_a_second_seed(capsys, tmp_path):
    assert main(["certify", "--fast", "--seed", "7", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(CERTIFY_SHA256_SEED_7)
    for name, digest in CERTIFY_SHA256_SEED_7.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_certify_artifacts_do_not_depend_on_cpu_dispatch(tmp_path):
    # numpy's AVX-512 kernels for power, exp, log and arctan2 round some
    # inputs differently from the baseline ones.  Their floats must only
    # feed decisions and counts, so the artifacts come out the same with
    # those kernels switched off.
    outs = [tmp_path / "default", tmp_path / "baseline"]
    for env, out in zip(dispatch_envs(), outs):
        subprocess.run([sys.executable, "-m", "bjorth", "certify", "--fast", "--seed", "0",
                        "--out", str(out)], env=env, check=True, capture_output=True,
                       timeout=600)
    for out in outs:
        assert sorted(p.name for p in out.iterdir()) == CERTIFY_ARTIFACTS
    for name in CERTIFY_ARTIFACTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_certify_failing_report_exits_one_and_writes_everything(capsys, tmp_path,
                                                                monkeypatch):
    failing = bj.VerificationReport(
        samples=1, boundary_excluded=0, orth_disagreements=1, acute_disagreements=0,
        max_norm_error=0.0, max_homog_error=0.0, continuity_modulus=0.0, seed=0,
        passed=False)
    monkeypatch.setattr(cli, "verify_preserver", lambda *args, **kwargs: failing)
    monkeypatch.setenv("BJORTH_OUTDIR", str(tmp_path))
    code, _, _ = run(capsys, "certify", "--fast", "--out", "rel")
    assert code == 1
    out = tmp_path / "rel"
    assert sorted(p.name for p in out.iterdir()) == CERTIFY_ARTIFACTS
    assert json.loads((out / "preserver_dayjames_3.json").read_text())["pass"] is False
    assert json.loads((out / "summary.json").read_text())["checks"]["preserver_sum_linf8"] is False


@pytest.mark.parametrize("argv", [
    ["sum-acute", "--x-space", "lp:2:2", "--y-space", "linf:1", "--samples", "0"],
    ["preserver-verify", "--target", "dayjames:3:1.5", "--grid", "64", "--samples", "0"],
    ["sections", "--space", "sum(lp:2:2,linf:1)", "--candidates", "4", "--pair-samples", "0"],
    ["radon", "--space", "dayjames:3:1.5", "--grid", "8"],
    ["orthograph", "--space", "dayjames:3:1.5", "--directions", "-1"],
    ["circle", "--space", "lp:2:3", "--grid", "-1", "--out", "circle.csv"],
    ["smooth", "--space", "lp:2:1.5", "--samples", "-3"],
    ["sections", "--space", "sum(lp:2:2,linf:1)", "--candidates", "0"],
], ids=["sum-acute", "preserver-verify", "sections", "radon", "orthograph", "circle", "smooth",
        "section-candidates"])
def test_counts_below_the_minimum_exit_two(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.setenv("BJORTH_OUTDIR", str(tmp_path))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "must be >= " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check", "--space", "lp:2:2", "--x", "1,0", "--y=-1e-3,1", "--margin=-0.01"],
    ["radon", "--space", "dayjames:3:1.5", "--grid", "16", "--margin=-1e-8"],
    ["preserver-verify", "--target", "dayjames:3:1.5", "--grid", "64", "--samples", "2",
     "--margin=-1e-9"],
    ["sum-acute", "--x-space", "lp:2:2", "--y-space", "linf:1", "--samples", "2",
     "--margin=-1e-9"],
    ["orthograph", "--space", "dayjames:3:1.5", "--directions", "4", "--margin=-1e-9"],
], ids=["check", "radon", "preserver-verify", "sum-acute", "orthograph"])
def test_negative_margins_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: margin must be >= 0")
    assert "acute" not in out and "witness" not in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
def test_sections_bad_tol_exits_two(capsys, tol):
    # A NaN tol used to flag every candidate of a sum that has no Euclidean
    # section, and exit 0; a negative one flagged nothing.
    code, out, err = run(capsys, "sections", "--space", "sum(dayjames:3:1.5,linf:1)",
                         f"--tol={tol}", "--candidates", "10")
    assert code == 2
    assert err.startswith("error: tol must be ")
    assert "flagged" not in out


def test_sections_of_a_line_exit_two(capsys):
    code, _, err = run(capsys, "sections", "--space", "linf:1", "--candidates", "3")
    assert code == 2
    assert err.startswith("error: ") and "no 2-D sections" in err


@pytest.mark.parametrize("argv", [
    ["preserver-verify", "--target", "dayjames:3:1.5", "--grid", "64", "--samples", "2"],
    ["sum-acute", "--x-space", "lp:2:2", "--y-space", "linf:1", "--samples", "2"],
    ["sections", "--space", "sum(lp:2:2,linf:1)", "--candidates", "4"],
    ["smooth", "--space", "lp:2:2", "--samples", "2"],
    ["certify", "--fast"],
], ids=["preserver-verify", "sum-acute", "sections", "smooth", "certify"])
def test_negative_seeds_exit_two(capsys, argv, tmp_path, monkeypatch):
    # numpy's generators used to raise a ValueError, which exited 1, the
    # code of a failed verification.
    monkeypatch.setenv("BJORTH_OUTDIR", str(tmp_path))
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("angles", ["0.1,x", "0.1,inf", "nan"])
def test_orthograph_bad_angles_exit_two(capsys, angles):
    code, out, err = run(capsys, "orthograph", "--space", "dayjames:3:1.5",
                         f"--angles={angles}")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "edges" not in out


@pytest.mark.parametrize("text", [
    '{"type": "linf", "dim": "x"}',
    '{"type": "linf", "dim": null}',
    '{"type": "linf", "dim": 1e400}',
    '{"type": "inf_sum", "parts": [{"type": "linf", "dim": 2}, {"type": "lp", "dim": 2',
    '{"type": "inf_sum", "parts": [' * 5000,
], ids=["dim-text", "dim-null", "dim-overflow", "truncated", "too-deep"])
def test_malformed_space_files_exit_two(capsys, tmp_path, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", "--space", str(path), "--x", "1,0", "--y", "0,1")
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_file_errors_exit_two(capsys, tmp_path):
    existing = tmp_path / "taken"
    existing.write_text("not a directory\n")
    code, _, err = run(capsys, "certify", "--fast", "--out", str(existing))
    assert code == 2
    assert "error:" in err and "usage" in err
    assert existing.read_text() == "not a directory\n"
