import json
import math
import os
from pathlib import Path

import pytest

from azeta.cli import main
from azeta.volume import lattice_count
from shapes import ABSVAL


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "phi": {"variant": "pnorm", "dim": 1, "p": 1.0},
        "generator": [[1.0]],
        "tolerances": {"volume_target": 1e-10},
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def load_summary(tmp_path, name):
    with open(tmp_path / "out" / name) as fh:
        return json.load(fh)


def test_zeta_point_value_and_bound(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["zeta", "--config", str(cfg), "--s", "2+0i"])
    assert rc == 0
    summary = load_summary(tmp_path, "zeta_summary.json")
    row = summary["results"][0]
    assert abs(row["value_re"] - 3.2898681) < 1e-6
    assert row["error"] <= 1e-8
    assert row["s_re"] == 2.0 and row["s_im"] == 0.0


def test_zeta_csv_contract(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["zeta", "--config", str(cfg), "--s", "2+0i", "--s=-1+0i"]) == 0
    lines = (tmp_path / "out" / "zeta.csv").read_text().splitlines()
    assert lines[0] == "s_re,s_im,value_re,value_im,error,rigor"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 2.0
    assert first[5] in ("rigorous", "estimated")


def test_zeta_grid(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["zeta", "--config", str(cfg), "--grid", "1.5:2.0:2,0:1:2"]) == 0
    summary = load_summary(tmp_path, "zeta_summary.json")
    pts = [(r["s_re"], r["s_im"]) for r in summary["results"]]
    assert pts == [(1.5, 0.0), (1.5, 1.0), (2.0, 0.0), (2.0, 1.0)]


def test_zeta_methods_agree(tmp_path):
    cfg = write_config(tmp_path)
    values = {}
    for method in ("direct", "continued"):
        assert main(["zeta", "--config", str(cfg), "--s", "2+0i",
                     "--method", method]) == 0
        values[method] = load_summary(tmp_path, "zeta_summary.json")["results"][0]
    gap = abs(values["direct"]["value_re"] - values["continued"]["value_re"])
    assert gap <= values["direct"]["error"] + values["continued"]["error"]


def test_zeta_at_zero_auto_route(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["zeta", "--config", str(cfg), "--s", "0+0i"]) == 0
    row = load_summary(tmp_path, "zeta_summary.json")["results"][0]
    assert (row["s_re"], row["s_im"]) == (0.0, 0.0)
    assert abs(row["value_re"] + 1.0) <= row["error"] <= 1e-6
    assert abs(row["value_im"]) <= row["error"]


def test_zeta_needs_a_point(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["zeta", "--config", str(cfg)]) == 2


def test_reruns_are_byte_identical(tmp_path):
    cfg_a = write_config(tmp_path, name="a.json",
                         output_dir=str(tmp_path / "out_a"))
    cfg_b = write_config(tmp_path, name="b.json",
                         output_dir=str(tmp_path / "out_b"))
    argv_tail = ["--s", "2+0i", "--s", "0.5+0.25i"]
    assert main(["zeta", "--config", str(cfg_a)] + argv_tail) == 0
    assert main(["zeta", "--config", str(cfg_b)] + argv_tail) == 0
    for name in ("zeta.csv", "zeta_summary.json"):
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b


def test_theta_point(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["theta", "--config", str(cfg), "--w", "1+0i"]) == 0
    row = load_summary(tmp_path, "theta_summary.json")["results"][0]
    assert abs(row["value_re"] - (1.0 + 2.0 / (math.e - 1.0))) < 1e-9
    header = (tmp_path / "out" / "theta.csv").read_text().splitlines()[0]
    assert header == "w_re,w_im,value_re,value_im,error,rigor"


def test_theta_over_the_point_budget_exits_3(tmp_path, monkeypatch, capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "disc2d.json"
    monkeypatch.chdir(tmp_path)
    assert main(["theta", "--config", str(config), "--w", "1e-7"]) == 3
    assert "budget" in capsys.readouterr().err


def test_volume_agreement(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["volume", "--config", str(cfg), "--samples", "50000"]) == 0
    summary = load_summary(tmp_path, "volume_summary.json")
    assert summary["agreement"] is True
    assert abs(summary["exp_integral"]["value_re"] - 2.0) < 1e-8
    rows = (tmp_path / "out" / "volume.csv").read_text().splitlines()
    assert rows[0] == "estimator,value,error,rigor"
    assert [line.split(",")[0] for line in rows[1:]] == [
        "exp_integral", "monte_carlo", "counting_ratio"]


def test_count_tables(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["count", "--config", str(cfg), "--radii", "10,100"]) == 0
    lines = (tmp_path / "out" / "counting.csv").read_text().splitlines()
    assert lines[0] == "r,count,ratio,target,deviation"
    r, count, ratio, target, dev = lines[1].split(",")
    assert float(r) == 10.0
    assert int(count) == lattice_count(ABSVAL, 10.0)
    pole = (tmp_path / "out" / "pole_limit.csv").read_text().splitlines()
    assert pole[0] == "sigma,scaled_zeta,alpha_volume,deviation"
    assert len(pole) == 5


def test_asymp_outputs(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["asymp", "--config", str(cfg), "--terms", "3"]) == 0
    lines = (tmp_path / "out" / "asymp.csv").read_text().splitlines()
    assert lines[0] == "abs_w,remainder,slope,threshold"
    summary = load_summary(tmp_path, "asymp_summary.json")
    assert summary["passed"] is True


def test_verify_passes_for_interval(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", str(cfg)]) == 0
    summary = load_summary(tmp_path, "verify_summary.json")
    assert summary["all_passed"] is True
    assert len(summary["checks"]) >= 8


def test_missing_generator_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"phi": {"variant": "pnorm", "dim": 1, "p": 1.0}}))
    assert main(["zeta", "--config", str(path), "--s", "2+0i"]) == 2
    assert "generator" in capsys.readouterr().err


def test_generator_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, generator=[[2.0]])
    assert main(["zeta", "--config", str(cfg), "--s", "2+0i"]) == 2
    assert "generator" in capsys.readouterr().err


def test_unknown_variant_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, phi={"variant": "banana", "dim": 1})
    assert main(["zeta", "--config", str(cfg), "--s", "2+0i"]) == 2
    assert "variant" in capsys.readouterr().err


def test_missing_variant_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, phi={"variant": "pnorm", "dim": 1})
    assert main(["zeta", "--config", str(cfg), "--s", "2+0i"]) == 2
    assert "p" in capsys.readouterr().err


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["zeta", "--config", str(path), "--s", "2+0i"]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["zeta", "--config", str(tmp_path / "nope.json"),
                 "--s", "2+0i"]) == 2


def test_bad_seed_exits_2(tmp_path):
    cfg = write_config(tmp_path, seed=-1)
    assert main(["volume", "--config", str(cfg), "--samples", "1000"]) == 2


def test_budget_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["count", "--config", str(cfg), "--radii", "1e12"]) == 3
    assert "budget" in capsys.readouterr().err


def test_transform_over_its_sample_budget_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, phi={"variant": "pnorm", "dim": 2, "p": 3.0},
                       generator=[[1.0, 0.0], [0.0, 1.0]])
    assert main(["zeta", "--config", str(cfg), "--s", "0.5+1i",
                 "--method", "continued"]) == 3
    assert "sample budget" in capsys.readouterr().err


def test_zero_kernel_power_exits_2_under_continued(tmp_path, capsys):
    cfg = write_config(tmp_path, kernel={"power": 0})
    assert main(["zeta", "--config", str(cfg), "--s", "0.25+1i",
                 "--method", "continued"]) == 2
    assert "invalid request" in capsys.readouterr().err


def test_divergent_point_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["zeta", "--config", str(cfg), "--s", "0.5+0i",
                 "--method", "direct"]) == 2
    assert "invalid request" in capsys.readouterr().err
