import copy
import csv
import functools
import io
import json
import math
import operator
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zoneval.cli import main
from zoneval.synth import QualityProfile, ZoneQuality, synthetic_benchmark
from zoneval.zones import Annular, build_partition

from conftest import write_coco_dt, write_coco_gt


@pytest.fixture
def bench_files(tmp_path):
    p = build_partition(Annular(5))
    profile = QualityProfile(
        {z.id: ZoneQuality(recall=0.8, fp_per_tp=0.3) for z in p.zones}, rng_seed=5
    )
    ds, dets, expected = synthetic_benchmark(25, 400, 1.0, profile, p)
    gt = tmp_path / "gt.json"
    dt = tmp_path / "dt.json"
    write_coco_gt(gt, ds)
    write_coco_dt(dt, dets)
    return gt, dt, expected


class TestEval:
    def test_annular_run_writes_report(self, bench_files, tmp_path, capsys):
        gt, dt, expected = bench_files
        out = tmp_path / "report.json"
        code = main(["eval", "--gt", str(gt), "--dt", str(dt),
                     "--partition", "annular:5", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert [z["id"] for z in report["zones"]] == ["z0,1", "z1,2", "z2,3", "z3,4", "z4,5"]
        assert report["variance"] is not None
        assert report["full_ap"] == pytest.approx(expected.full_ap, abs=0.5)
        table = capsys.readouterr().out.splitlines()
        assert table[0].split()[:2] == ["AP", "Var."]

    def test_runs_are_byte_identical(self, bench_files, tmp_path):
        gt, dt, _ = bench_files
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["eval", "--gt", str(gt), "--dt", str(dt), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_output(self, bench_files, tmp_path):
        gt, dt, _ = bench_files
        outs = []
        for name, workers in (("w1.json", "1"), ("w8.json", "8")):
            out = tmp_path / name
            code = main(["eval", "--gt", str(gt), "--dt", str(dt),
                         "--workers", workers, "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_grid_heatmap_files(self, bench_files, tmp_path):
        gt, dt, _ = bench_files
        out = tmp_path / "report.json"
        hm = tmp_path / "heat.csv"
        code = main(["eval", "--gt", str(gt), "--dt", str(dt), "--partition", "grid:3x3",
                     "--iou", "0.5,0.75", "--out", str(out), "--heatmap", str(hm)])
        assert code == 0
        assert hm.exists()
        assert (tmp_path / "heat_t0.50.csv").exists()
        assert (tmp_path / "heat_t0.75.csv").exists()
        rows = hm.read_text().strip().splitlines()
        assert len(rows) == 3

    def test_csv_format(self, bench_files, tmp_path):
        gt, dt, _ = bench_files
        out = tmp_path / "report.csv"
        assert main(["eval", "--gt", str(gt), "--dt", str(dt), "--format", "csv",
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("zone,zp,gt_count,det_count,area_fraction")

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["eval", "--gt", str(tmp_path / "nope.json"), "--dt", str(tmp_path / "d.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_ground_truth_exits_two(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "images": [{"id": 1, "width": 100, "height": 100}],
            "annotations": [],
            "categories": [{"id": 1, "name": "c"}],
        }))
        dt = tmp_path / "dt.json"
        dt.write_text("[]")
        code = main(["eval", "--gt", str(gt), "--dt", str(dt)])
        assert code == 2
        assert "undefined" in capsys.readouterr().err

    def test_bad_partition_is_input_error(self, bench_files, capsys):
        gt, dt, _ = bench_files
        assert main(["eval", "--gt", str(gt), "--dt", str(dt), "--partition", "blobs:9"]) == 1

    def test_custom_partition_file(self, bench_files, tmp_path):
        gt, dt, _ = bench_files
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps([
            {"name": "west", "rects": [[0.0, 0.0, 0.5, 1.0]]},
            {"name": "east", "rects": [[0.5, 0.0, 1.0, 1.0]]},
        ]))
        out = tmp_path / "report.json"
        code = main(["eval", "--gt", str(gt), "--dt", str(dt),
                     "--partition", f"custom:@{zones}", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert [z["id"] for z in report["zones"]] == ["west", "east"]
        assert sum(z["gt_count"] for z in report["zones"]) == 400

    def test_workers_env_fallback(self, bench_files, tmp_path, monkeypatch):
        gt, dt, _ = bench_files
        plain = tmp_path / "plain.json"
        assert main(["eval", "--gt", str(gt), "--dt", str(dt), "--out", str(plain)]) == 0
        monkeypatch.setenv("ZONE_EVAL_WORKERS", "3")
        via_env = tmp_path / "env.json"
        assert main(["eval", "--gt", str(gt), "--dt", str(dt), "--out", str(via_env)]) == 0
        assert plain.read_bytes() == via_env.read_bytes()

    def test_scale_range_flag_restricts_objects(self, bench_files, tmp_path):
        gt, dt, _ = bench_files
        everything = tmp_path / "all.json"
        small_only = tmp_path / "small.json"
        assert main(["eval", "--gt", str(gt), "--dt", str(dt), "--out", str(everything)]) == 0
        assert main(["eval", "--gt", str(gt), "--dt", str(dt),
                     "--scale-range", "0:1024", "--out", str(small_only)]) == 0
        assert json.loads(everything.read_text()) != json.loads(small_only.read_text())

    def test_undefined_zone_warning_on_stderr(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "images": [{"id": 1, "width": 100, "height": 100}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": [45, 45, 10, 10], "area": 100}],
            "categories": [{"id": 1, "name": "c"}],
        }))
        dt = tmp_path / "dt.json"
        dt.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                   "bbox": [45, 45, 10, 10], "score": 0.9}]))
        code = main(["eval", "--gt", str(gt), "--dt", str(dt), "--partition", "annular:5"])
        assert code == 0
        err = capsys.readouterr().err
        assert "z0,1" in err and "undefined" in err


class TestDensity:
    def test_fifty_ring_csv(self, bench_files, tmp_path):
        gt, _, _ = bench_files
        out = tmp_path / "density.csv"
        code = main(["density", "--gt", str(gt), "--partition", "annular:50",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "zone,count,area,density"
        assert len(lines) == 51

    def test_density_json(self, bench_files, tmp_path):
        gt, _, _ = bench_files
        out = tmp_path / "density.json"
        code = main(["density", "--gt", str(gt), "--partition", "grid:2x2",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert sum(z["count"] for z in payload["zones"]) == 400


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def sela_total(path, zone_id):
    """The positives of a zone's ``total`` row in ``zone-eval sela`` CSV output."""
    (row,) = [r for r in read_csv(path) if r[:2] == ["total", zone_id]]
    return int(row[2])


class TestCsvQuoting:
    """Annular zone ids hold a comma; every CSV row must keep the header's width."""

    def test_density_default_partition(self, bench_files, tmp_path):
        gt, _, _ = bench_files
        out = tmp_path / "density.csv"
        assert main(["density", "--gt", str(gt), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["zone", "count", "area", "density"]
        assert len(rows) == 51
        assert all(len(r) == 4 for r in rows)
        assert rows[1][0] == "z0,1"
        assert sum(int(r[1]) for r in rows[1:]) == 400

    def test_sela_annular(self, bench_files, tmp_path):
        gt, _, _ = bench_files
        out = tmp_path / "sela.csv"
        assert main(["sela", "--gt", str(gt), "--anchor-grid", "8x8", "--anchor-size", "80",
                     "--partition", "annular:5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["image_id", "zone", "positives", "density"]
        assert all(len(r) == 4 for r in rows)
        totals = {r[1]: int(r[2]) for r in rows if r[0] == "total"}
        assert list(totals) == ["z0,1", "z1,2", "z2,3", "z3,4", "z4,5"]
        per_image = [r for r in rows[1:] if r[0] != "total"]
        assert sum(int(r[2]) for r in per_image) == sum(totals.values())


class TestSela:
    def test_gamma_increases_border_positives(self, tmp_path):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "images": [{"id": 1, "width": 600, "height": 600}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 260, 80, 80], "area": 6400},
                {"id": 2, "image_id": 1, "category_id": 1, "bbox": [260, 260, 80, 80], "area": 6400},
            ],
            "categories": [{"id": 1, "name": "c"}],
        }))

        def border_total(gamma):
            out = tmp_path / f"sela_{gamma}.csv"
            code = main(["sela", "--gt", str(gt), "--anchor-grid", "16x16",
                         "--anchor-size", "80", "--t", "0.4", "--gamma", str(gamma),
                         "--partition", "annular:5", "--out", str(out)])
            assert code == 0
            return sela_total(out, "z0,1")

        assert border_total(0.2) > border_total(0.0)

    @pytest.mark.filterwarnings("ignore:alpha_pos")
    def test_beta_variant(self, tmp_path):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "images": [{"id": 1, "width": 600, "height": 600}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 80, 80], "area": 6400},
            ],
            "categories": [{"id": 1, "name": "c"}],
        }))
        out = tmp_path / "beta.csv"
        code = main(["sela", "--gt", str(gt), "--anchor-grid", "12x12", "--anchor-size", "80",
                     "--alpha-pos", "0.5", "--beta", "1.0", "--beta-zone", "z0,1",
                     "--partition", "annular:5", "--out", str(out)])
        assert code == 0
        assert sela_total(out, "z0,1") == 0


class TestSynthCommands:
    def test_sudoku_generation(self, tmp_path):
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps([{"source_id": i, "category_id": 1 + i % 3} for i in range(12)]))
        out_gt = tmp_path / "sudoku_gt.json"
        out_man = tmp_path / "manifest.json"
        code = main(["synth", "sudoku", "--objects", str(meta), "--canvas", "600",
                     "--size", "128", "--out-gt", str(out_gt), "--out-manifest", str(out_man)])
        assert code == 0
        doc = json.loads(out_gt.read_text())
        assert len(doc["annotations"]) == 12
        assert len(doc["images"]) == 2
        manifest = json.loads(out_man.read_text())
        assert manifest[0]["cell"] == [0, 0]

    def test_bench_generation_round_trips_through_eval(self, tmp_path, capsys):
        out_gt = tmp_path / "bg.json"
        out_dt = tmp_path / "bd.json"
        out_exp = tmp_path / "expected.json"
        code = main(["synth", "bench", "--seed", "9", "--images", "10", "--objects", "120",
                     "--center-bias", "2.0", "--partition", "annular:3",
                     "--out-gt", str(out_gt), "--out-dt", str(out_dt),
                     "--out-expected", str(out_exp)])
        assert code == 0
        out = tmp_path / "report.json"
        code = main(["eval", "--gt", str(out_gt), "--dt", str(out_dt),
                     "--partition", "annular:3", "--out", str(out)])
        assert code == 0
        got = json.loads(out.read_text())
        want = json.loads(out_exp.read_text())
        for g, w in zip(got["zones"], want["zones"]):
            if w["zp"] is None:
                assert g["zp"] is None
            else:
                assert g["zp"] == pytest.approx(w["zp"], abs=0.1)


class TestCorrelate:
    def test_proportional_heatmap_gives_unit_pcc(self, tmp_path):
        # counts grid equals the heatmap up to scale -> pcc 1 on each threshold
        gt = tmp_path / "gt.json"
        anns = []
        k = 1
        centers = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}
        for (r, c), n in centers.items():
            for _ in range(n):
                anns.append({
                    "id": k, "image_id": 1, "category_id": 1,
                    "bbox": [25 + 50 * c, 25 + 50 * r, 2, 2], "area": 4,
                })
                k += 1
        gt.write_text(json.dumps({
            "images": [{"id": 1, "width": 100, "height": 100}],
            "annotations": anns,
            "categories": [{"id": 1, "name": "c"}],
        }))
        base = tmp_path / "heat.csv"
        (tmp_path / "heat_t0.50.csv").write_text("10.0,20.0\r\n30.0,40.0\r\n")
        (tmp_path / "heat_t0.75.csv").write_text("1.0,2.0\r\n3.0,4.0\r\n")
        out = tmp_path / "curve.csv"
        code = main(["correlate", "--gt", str(gt), "--heatmap", str(base),
                     "--iou", "0.5,0.75", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iou,pcc,scc"
        for line in lines[1:]:
            _, pcc, scc = line.split(",")
            assert float(pcc) == pytest.approx(1.0)
            assert float(scc) == pytest.approx(1.0)

    def test_full_pipeline_from_eval(self, bench_files, tmp_path):
        gt, dt, _ = bench_files
        hm = tmp_path / "h.csv"
        assert main(["eval", "--gt", str(gt), "--dt", str(dt), "--partition", "grid:3x3",
                     "--iou", "0.5,0.75", "--out", str(tmp_path / "r.json"),
                     "--heatmap", str(hm)]) == 0
        out = tmp_path / "curve.csv"
        assert main(["correlate", "--gt", str(gt), "--heatmap", str(hm),
                     "--iou", "0.5,0.75", "--out", str(out)]) == 0
        assert out.read_text().startswith("iou,pcc,scc")


class TestPatternDistance:
    def test_cli_output(self, tmp_path):
        recs = [
            {"split": "train", "zone_tag": "in", "category_id": 1, "area": 100.0, "vector": [1.0, 1.0]},
            {"split": "test", "zone_tag": "in", "category_id": 1, "area": 100.0, "vector": [1.5, 1.5]},
        ]
        feats = tmp_path / "f.jsonl"
        feats.write_text("\n".join(json.dumps(r) for r in recs))
        out = tmp_path / "dist.json"
        code = main(["pattern-distance", "--features", str(feats),
                     "--side-a", "train:in", "--side-b", "test:in", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["distance"] == pytest.approx(0.5)


class TestHelp:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("eval", "density", "sela", "correlate", "pattern-distance", "synth"):
            assert cmd in out

    def test_unknown_flag_is_error(self, bench_files, capsys):
        gt, dt, _ = bench_files
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gt", str(gt), "--dt", str(dt), "--frobnicate"])
        assert exc.value.code != 0


class TestUsageErrors:
    """Usage errors exit 1 with a one-line message; 2 only means "evaluation undefined"."""

    def _exit_code(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return exc.value.code, err

    def test_bad_workers_flag(self, bench_files, capsys):
        gt, dt, _ = bench_files
        code, err = self._exit_code(["eval", "--gt", str(gt), "--dt", str(dt), "--workers", "abc"],
                                    capsys)
        assert code == 1
        assert "--workers" in err

    def test_decreasing_iou_range(self, bench_files, capsys):
        gt, dt, _ = bench_files
        code, err = self._exit_code(["eval", "--gt", str(gt), "--dt", str(dt),
                                     "--iou", "0.5:0.4:0.05"], capsys)
        assert code == 1
        assert "ends below its start" in err

    def test_workers_env_is_ignored(self, bench_files, monkeypatch):
        gt, _, _ = bench_files
        monkeypatch.setenv("ZONE_EVAL_WORKERS", "abc")
        assert main(["density", "--gt", str(gt)]) == 0

    @pytest.mark.parametrize("value", ["1:2:3", "5", "abc"])
    def test_bad_scale_range(self, bench_files, capsys, value):
        gt, dt, _ = bench_files
        code, err = self._exit_code(["eval", "--gt", str(gt), "--dt", str(dt),
                                     "--scale-range", value], capsys)
        assert code == 1
        assert err.startswith("error: argument --scale-range: ")

    @pytest.mark.parametrize("value", ["8", "8x", "axb"])
    def test_bad_anchor_grid(self, bench_files, capsys, value):
        gt, _, _ = bench_files
        code, err = self._exit_code(["sela", "--gt", str(gt), "--anchor-grid", value], capsys)
        assert code == 1
        assert err == f"error: argument --anchor-grid: expected COLSxROWS, got '{value}'\n"

    @pytest.mark.parametrize(
        "flags,problem",
        [
            (["--gamma", "nan"], "gamma must be >= 0"),
            (["--t", "nan"], "positive IoU threshold t must lie in (0, 1]"),
            (["--alpha-pos", "nan", "--beta", "0.1", "--beta-zone", "z0,1"], "must be finite"),
            (["--beta", "nan", "--beta-zone", "z0,1"], "must be finite"),
            (["--beta", "inf", "--beta-zone", "z0,1"], "must be finite"),
            (["--beta", "0.1"], "--beta requires --beta-zone"),
            (["--beta", "0.1", "--beta-zone", "nope"], "--beta-zone 'nope' not in partition"),
        ],
    )
    def test_non_finite_sela_thresholds(self, bench_files, tmp_path, capsys, flags, problem):
        # the rule is checked before the per-image loop, so a file without images fails too
        gt, _, _ = bench_files
        imageless = tmp_path / "imageless.json"
        imageless.write_text(json.dumps({"images": [], "annotations": [], "categories": []}))
        for path in (gt, imageless):
            code = main(["sela", "--gt", str(path), "--anchor-size", "20", *flags])
            err = capsys.readouterr().err
            assert code == 1, path
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert problem in err

    @pytest.mark.parametrize(
        "flags,problem",
        [
            (["--partition", "annular:5"], "--heatmap requires a grid partition"),
            (["--partition", "grid:3x3", "--iou", "0.5,0.501"],
             "--iou thresholds 0.5 and 0.501 would share the heatmap file {dir}/heat_t0.50.csv"),
        ],
    )
    def test_bad_heatmap_run_writes_nothing(self, bench_files, tmp_path, capsys, flags, problem):
        gt, dt, _ = bench_files
        before = set(tmp_path.iterdir())
        code = main(["eval", "--gt", str(gt), "--dt", str(dt), *flags,
                     "--out", str(tmp_path / "r.json"), "--heatmap", str(tmp_path / "heat.csv")])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == f"error: {problem.format(dir=tmp_path)}\n"
        assert out == "" and set(tmp_path.iterdir()) == before

    def test_nan_image_width(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"images": [{"id": 1, "width": float("nan"), "height": 100}],
                                  "annotations": [], "categories": []}))
        assert main(["density", "--gt", str(gt)]) == 1
        assert "image 1" in capsys.readouterr().err


def _gt_doc(images=None, annotations=None, categories=None):
    return {
        "images": [{"id": 1, "width": 10, "height": 10}] if images is None else images,
        "annotations": [] if annotations is None else annotations,
        "categories": [{"id": 1, "name": "a"}] if categories is None else categories,
    }


class TestIngestErrors:
    """A malformed input record exits 1 with one `error:` line that names it."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return code, err

    @pytest.mark.parametrize(
        "doc,names",
        [
            (_gt_doc(annotations=[5]), ["annotation #0", "not a JSON object"]),
            (_gt_doc(annotations=[{"id": 1, "category_id": 1, "bbox": [1, 1, 2, 2]}]),
             ["annotation 1", "image_id"]),
            (_gt_doc(images=[{"id": 1, "width": "abc", "height": 10}]), ["image 1", "'abc'"]),
            (_gt_doc(images=["x"]), ["image #0"]),
            (_gt_doc(images=[{"width": 10, "height": 10}]), ["image #0", "'id'"]),
            (_gt_doc(categories=[{"id": "one", "name": "a"}]), ["category one"]),
            (_gt_doc(categories=[{"name": "a"}]), ["category #0", "'id'"]),
            (_gt_doc(annotations=[{"id": 1, "image_id": 1, "bbox": [1, 1, 2, 2]}]),
             ["annotation 1", "category_id"]),
            (_gt_doc(annotations=[{"id": 1, "image_id": 1, "category_id": [1], "bbox": [1, 1, 2, 2]}]),
             ["annotation 1"]),
            (_gt_doc(annotations=[{"image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2]}]),
             ["annotation #0", "'id'"]),
            (_gt_doc(annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2],
                                   "area": "big"}]), ["annotation 1", "'big'"]),
            (_gt_doc(annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2],
                                   "area": math.nan}]), ["annotation 1", "area must be positive"]),
            (_gt_doc(annotations={}), ["annotation records"]),
            (_gt_doc(annotations=[{"id": 1, "image_id": 1.7, "category_id": 1, "bbox": [1, 1, 2, 2]}]),
             ["annotation 1", "1.7 is not an integer"]),
            (_gt_doc(annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2],
                                   "iscrowd": "0"}]), ["annotation 1", "'0'"]),
            (_gt_doc(annotations=[{"id": 1, "image_id": 1, "category_id": 1,
                                   "bbox": [1e308, 1e308, 1e308, 1e308]}]),
             ["annotation 1", "non-finite bbox corner or area"]),
        ],
    )
    def test_bad_ground_truth_record(self, tmp_path, capsys, doc, names):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(doc))
        code, err = self._run(["density", "--gt", str(gt)], capsys)
        assert code == 1
        for name in names:
            assert name in err

    @pytest.mark.parametrize(
        "records,names",
        [
            ([5], ["detection #0 is not a JSON object"]),
            ([{"image_id": 1.7, "category_id": 1, "bbox": [1, 1, 2, 2], "score": 0.5}],
             ["detection #0", "1.7 is not an integer"]),
            ([{"image_id": 1, "category_id": 1, "bbox": [1e308, 1e308, 1e308, 1e308], "score": 0.5}],
             ["detection #0", "non-finite bbox corner or area"]),
            ([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1e200, 1e200], "score": 0.5}],
             ["detection #0", "non-finite bbox corner or area"]),
        ],
    )
    def test_bad_results_record(self, tmp_path, capsys, records, names):
        gt, dt = tmp_path / "gt.json", tmp_path / "dt.json"
        gt.write_text(json.dumps(_gt_doc(annotations=[
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2]}])))
        dt.write_text(json.dumps(records))
        code, err = self._run(["eval", "--gt", str(gt), "--dt", str(dt)], capsys)
        assert code == 1
        for name in names:
            assert name in err

    def test_results_nested_past_the_recursion_limit(self, tmp_path, capsys):
        gt, dt = tmp_path / "gt.json", tmp_path / "dt.json"
        gt.write_text(json.dumps(_gt_doc()))
        dt.write_text("[" * 100_000 + "]" * 100_000)
        code, err = self._run(["eval", "--gt", str(gt), "--dt", str(dt)], capsys)
        assert code == 1
        assert "dt.json is not valid JSON" in err

    @pytest.mark.parametrize("text,problem", [("", "empty heatmap"), ("\r\n", "empty heatmap"),
                                              ("1,2\r\n3\r\n", "rows differ"),
                                              ("1,x\r\n", "'x'"),
                                              ("nan,1\r\n2,\r\n", "must be finite")])
    def test_bad_heatmap_csv(self, tmp_path, capsys, text, problem):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(_gt_doc()))
        (tmp_path / "heat_t0.50.csv").write_text(text)
        code, err = self._run(["correlate", "--gt", str(gt), "--heatmap", str(tmp_path / "heat.csv"),
                               "--iou", "0.5"], capsys)
        assert code == 1
        assert "heat_t0.50.csv" in err and problem in err

    def test_custom_zone_rect_of_three_numbers(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(_gt_doc()))
        zones = tmp_path / "z.json"
        zones.write_text(json.dumps([{"name": "a", "rects": [[0, 0, 1]]}]))
        code, err = self._run(["density", "--gt", str(gt), "--partition", f"custom:@{zones}"],
                              capsys)
        assert code == 1
        assert str(zones) in err and "zone 'a'" in err


    def test_undecodable_ground_truth(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_bytes(b"\xff\xfe\x00{}")
        code, err = self._run(["density", "--gt", str(gt)], capsys)
        assert code == 1
        assert f"cannot read {gt}" in err

    @pytest.mark.parametrize(
        "text,names",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, ["is not valid JSON"], id="nested-too-deep"),
            (json.dumps({"name": "a", "rects": [[0, 0, 1, 1]]}), ["zone records must be a JSON list"]),
            (json.dumps([5]), ["zone #0 is not a JSON object"]),
            (json.dumps([{"rects": [[0, 0, 1, 1]]}]), ["zone #0", "missing field 'name'"]),
            (json.dumps([{"name": "a", "rects": [[0, 0, 1, "x"]]}]), ["zone #0", "'x'"]),
            (json.dumps([{"name": "a", "rects": 5}]), ["zone #0", "malformed record"]),
        ],
    )
    def test_bad_custom_zones_file(self, tmp_path, capsys, text, names):
        gt, zones = tmp_path / "gt.json", tmp_path / "z.json"
        gt.write_text(json.dumps(_gt_doc()))
        zones.write_text(text)
        code, err = self._run(["density", "--gt", str(gt), "--partition", f"custom:@{zones}"],
                              capsys)
        assert code == 1
        assert str(zones) in err
        for name in names:
            assert name in err

    def test_custom_zone_without_rectangles(self, bench_files, tmp_path, capsys):
        gt, dt, _ = bench_files
        zones = tmp_path / "z.json"
        zones.write_text(json.dumps([{"name": "a", "rects": [[0, 0, 1, 1]]}, {"name": "b", "rects": []}]))
        code, err = self._run(["eval", "--gt", str(gt), "--dt", str(dt),
                               "--partition", f"custom:@{zones}"], capsys)
        assert code == 1
        assert "zone 'b' has no rectangles" in err

    @pytest.mark.parametrize(
        "fields,problem",
        [
            ({"vector": []}, "vector must be a non-empty list of finite numbers"),
            ({"vector": [math.nan, 1.0]}, "vector must be a non-empty list of finite numbers"),
            ({"vector": [math.inf]}, "vector must be a non-empty list of finite numbers"),
            ({"area": 0}, "scale (object area) must be finite and positive, got 0"),
            ({"category_id": 1.7}, "1.7 is not an integer"),
            ({"area": math.nan}, "scale (object area) must be finite and positive, got nan"),
            ({"area": math.inf}, "scale (object area) must be finite and positive, got inf"),
            ({"split": "val"}, "bad split 'val'"),
            ({"vector": None}, "malformed record"),
            ({"area": None, "vector": None}, "malformed record"),
        ],
    )
    def test_bad_feature_record(self, tmp_path, capsys, fields, problem):
        good = {"split": "train", "zone_tag": "in", "category_id": 1, "area": 100.0, "vector": [1.0, 2.0]}
        feats = tmp_path / "f.jsonl"
        feats.write_text("\n".join([json.dumps(good), "", json.dumps({**good, "split": "test", **fields})]))
        code, err = self._run(["pattern-distance", "--features", str(feats),
                               "--side-a", "train:in", "--side-b", "test:in"], capsys)
        assert code == 1
        assert f"{feats}:3: feature record" in err and problem in err

    @pytest.mark.parametrize(
        "line,names",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, ["f.jsonl:1 is not valid JSON"], id="nested-too-deep"),
            ("{", ["f.jsonl:1 is not valid JSON"]),
            ("5", ["f.jsonl:1: feature record is not a JSON object: 5"]),
        ],
    )
    def test_bad_feature_line(self, tmp_path, capsys, line, names):
        feats = tmp_path / "f.jsonl"
        feats.write_text(line + "\n")
        code, err = self._run(["pattern-distance", "--features", str(feats)], capsys)
        assert code == 1
        for name in names:
            assert name in err

    def test_feature_path_is_a_directory(self, tmp_path, capsys):
        code, err = self._run(["pattern-distance", "--features", str(tmp_path)], capsys)
        assert code == 1
        assert f"cannot read {tmp_path}" in err

    def test_overflowing_pattern_distance(self, tmp_path, capsys):
        feats = tmp_path / "f.jsonl"
        feats.write_text("\n".join(json.dumps({"split": split, "zone_tag": "in", "category_id": 1,
                                                "area": 100.0, "vector": [v, v]})
                                    for split, v in (("train", 1e308), ("test", -1e308))))
        out = tmp_path / "d.json"
        code, err = self._run(["pattern-distance", "--features", str(feats), "--side-a", "train:in",
                               "--side-b", "test:in", "--out", str(out)], capsys)
        assert code == 1
        assert "pattern distance overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("width", ["inf", "nan", "0"])
    def test_bad_bin_width(self, tmp_path, capsys, width):
        feats = tmp_path / "f.jsonl"
        feats.write_text(json.dumps({"split": "test", "zone_tag": "in", "category_id": 1,
                                     "area": 100.0, "vector": [1.0]}) + "\n")
        code, err = self._run(["pattern-distance", "--features", str(feats), "--bin-width", width], capsys)
        assert code == 1
        assert "bin_width finite and positive" in err

    @pytest.mark.parametrize(
        "doc,names",
        [
            ([{"source_id": 1}], ["object #0", "missing field 'category_id'"]),
            ([5], ["object #0 is not a JSON object: 5"]),
            ({"objects": {"source_id": 1, "category_id": 1}}, ["object records must be a JSON list"]),
            ({"items": []}, ["object records must be a JSON list"]),
            ([{"source_id": 1, "category_id": 2}, {"source_id": 1.5, "category_id": 2}],
             ["object #1", "1.5 is not an integer"]),
        ],
    )
    def test_bad_sudoku_objects(self, tmp_path, capsys, doc, names):
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(doc))
        code, err = self._run(["synth", "sudoku", "--objects", str(meta),
                               "--out-gt", str(tmp_path / "g.json")], capsys)
        assert code == 1
        assert str(meta) in err
        for name in names:
            assert name in err

    @pytest.mark.parametrize(
        "doc,names",
        [
            ({"z0,1": {}}, ["zone 'z0,1'", "missing field 'recall'"]),
            ({"a": 1}, ["zone 'a' is not a JSON object: 1"]),
            ([{"recall": 1.0}], ["quality profile must be a JSON object"]),
            ({"z0,1": {"recall": math.nan}}, ["zone 'z0,1'", "recall nan outside [0, 1]"]),
            ({"z0,1": {"recall": 1.0, "fp_per_tp": 1e308}}, ["zone 'z0,1'", "fp_per_tp must lie in [0, 100]"]),
            ({"z0,1": {"recall": 1.0, "loc_jitter": math.inf}}, ["zone 'z0,1'", "2 * loc_jitter finite"]),
            ({"z0,1": {"recall": 1.0, "loc_jitter": 1e308}}, ["zone 'z0,1'", "2 * loc_jitter finite"]),
        ],
    )
    def test_bad_quality_profile(self, tmp_path, capsys, doc, names):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(doc))
        code, err = self._run(["synth", "bench", "--partition", "annular:1", "--images", "2",
                               "--objects", "5", "--profile", str(profile),
                               "--out-gt", str(tmp_path / "g.json"), "--out-dt", str(tmp_path / "d.json")],
                              capsys)
        assert code == 1
        assert str(profile) in err
        for name in names:
            assert name in err


class TestOutputPaths:
    """An output path that cannot be written exits 1 with one `error:` line that names it."""

    def test_eval_report_path_is_a_directory(self, bench_files, tmp_path, capsys):
        gt, dt, _ = bench_files
        code, err = TestIngestErrors._run(["eval", "--gt", str(gt), "--dt", str(dt),
                                           "--out", str(tmp_path)], capsys)
        assert code == 1
        assert str(tmp_path) in err

    def test_correlate_heatmap_path_is_a_directory(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(_gt_doc()))
        (tmp_path / "heat_t0.50.csv").mkdir()
        code, err = TestIngestErrors._run(["correlate", "--gt", str(gt), "--heatmap",
                                           str(tmp_path / "heat.csv"), "--iou", "0.5"], capsys)
        assert code == 1
        assert "heat_t0.50.csv" in err


_FUZZ_GT = {
    "images": [{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"},
               {"id": 2, "width": 64, "height": 64}],
    "annotations": [
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "area": 400, "iscrowd": 0},
        {"id": 2, "image_id": 1, "category_id": 2, "bbox": [50, 30, 30, 40], "iscrowd": 0},
        {"id": 3, "image_id": 2, "category_id": 1, "bbox": [5, 5, 40, 40], "area": 1600, "iscrowd": 1},
        {"id": 4, "image_id": 2, "category_id": 1, "bbox": [20, 20, 30, 30]},
    ],
    "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
}
_FUZZ_DT = [
    {"image_id": 1, "category_id": 1, "bbox": [11, 10, 20, 20], "score": 0.9},
    {"image_id": 1, "category_id": 2, "bbox": [50, 32, 30, 38], "score": 0.8},
    {"image_id": 2, "category_id": 1, "bbox": [21, 19, 30, 30], "score": 0.7},
    {"image_id": 2, "category_id": 1, "bbox": [0, 0, 10, 10], "score": 0.2},
]
_DROP = object()  # drop the key or list item; at the root, an empty file
# wrong types and containers, NaN and +-inf, 1e308, fractional and huge ids, a string flag
_FUZZ_VALUES = [None, True, "x", "0", [], {}, [1, 2], 1.5, 0, -1, math.nan, math.inf, -math.inf,
                1e308, -1e308, 10**30]


def _paths(node, prefix=()):
    """The path of every node of a JSON document, the root included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


_FUZZ_ZONES = [
    {"name": "west", "rects": [[0.0, 0.0, 0.5, 1.0]]},
    {"name": "east", "rects": [[0.5, 0.0, 1.0, 0.5], [0.5, 0.5, 1.0, 1.0]]},
]
_FUZZ_FEATURES = [
    {"split": "train", "zone_tag": "in", "category_id": 1, "area": 100.0, "vector": [1.0, 2.0]},
    {"split": "test", "zone_tag": "in", "category_id": 1, "area": 120.0, "vector": [1.5, 2.5]},
    {"split": "train", "zone_tag": "out", "category_id": 2, "area": 5000.0, "vector": [0.0, -1.0]},
    {"split": "test", "zone_tag": "in", "category_id": 2, "area": 4000.0, "vector": [0.5, 0.0]},
]
_FUZZ_OBJECTS = {"objects": [{"source_id": 7, "category_id": 1}, {"source_id": 8, "category_id": 2},
                             {"source_id": 9, "category_id": 1}]}
_FUZZ_PROFILE = {"z0,1": {"recall": 0.5, "fp_per_tp": 0.5, "loc_jitter": 2.0}, "z1,2": {"recall": 1.0}}


def _file_text(name, doc):
    """A document as file text: JSON, or for a ``.jsonl`` list one JSON value per line."""
    if doc is _DROP:
        return ""
    if name.endswith(".jsonl") and isinstance(doc, list):
        return "\n".join(json.dumps(rec) for rec in doc) + "\n"
    return json.dumps(doc)


class TestErrorContractFuzz:
    """Mutated input files end in exit 0, 1 or 2 with at most one `error:` line.

    Derandomized, so that every run of the suite tries the same examples.
    """

    @staticmethod
    def _check(data, docs, mutable, argv):
        """Mutate 1 to 3 nodes of the ``mutable`` documents, write all of them, run ``argv(files, tmp)``."""
        docs = dict(docs)
        for _ in range(data.draw(st.integers(1, 3))):
            name = data.draw(st.sampled_from(mutable))
            path = data.draw(st.sampled_from(list(_paths(docs[name]))))
            docs[name] = _mutated(docs[name], path, data.draw(st.sampled_from([_DROP, *_FUZZ_VALUES])))
        with tempfile.TemporaryDirectory() as tmp:
            files = {name: str(Path(tmp) / name) for name in docs}
            for name, doc in docs.items():
                Path(files[name]).write_text(_file_text(name, doc))
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(io.StringIO()), redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv(files, Path(tmp)))
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert not caught, [str(w.message) for w in caught]
        assert all(line.startswith(("error: ", "warning: zone ")) for line in lines), lines
        errors = sum(line.startswith("error: ") for line in lines)
        assert errors == (code == 1), lines

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_inputs_keep_the_exit_contract(self, data):
        docs = {"gt.json": _FUZZ_GT, "dt.json": _FUZZ_DT}
        self._check(data, docs, sorted(docs), lambda f, tmp: [
            "eval", "--gt", f["gt.json"], "--dt", f["dt.json"], "--out", str(tmp / "report.json")])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_custom_zones(self, data):
        docs = {"gt.json": _FUZZ_GT, "dt.json": _FUZZ_DT, "zones.json": _FUZZ_ZONES}
        self._check(data, docs, ["zones.json"], lambda f, tmp: [
            "eval", "--gt", f["gt.json"], "--dt", f["dt.json"], "--partition", f"custom:@{f['zones.json']}",
            "--out", str(tmp / "report.json")])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_feature_records(self, data):
        self._check(data, {"features.jsonl": _FUZZ_FEATURES}, ["features.jsonl"], lambda f, tmp: [
            "pattern-distance", "--features", f["features.jsonl"], "--side-a", "train:in",
            "--side-b", "test:in", "--out", str(tmp / "distance.json")])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_sudoku_objects(self, data):
        self._check(data, {"objects.json": _FUZZ_OBJECTS}, ["objects.json"], lambda f, tmp: [
            "synth", "sudoku", "--objects", f["objects.json"], "--out-gt", str(tmp / "gt.json"),
            "--out-manifest", str(tmp / "manifest.json")])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_quality_profile(self, data):
        self._check(data, {"profile.json": _FUZZ_PROFILE}, ["profile.json"], lambda f, tmp: [
            "synth", "bench", "--partition", "annular:2", "--images", "4", "--objects", "20",
            "--profile", f["profile.json"], "--out-gt", str(tmp / "gt.json"), "--out-dt", str(tmp / "dt.json")])
