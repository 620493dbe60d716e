"""Edge-of-contract checks across modules: odd worker counts, config
switches, partial inputs, and error surfaces."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from countnet import filtering
from countnet.cli import main
from countnet.filtering import (
    Ensemble,
    Filter,
    FilterConfig,
    FilterDivergence,
    FilterResult,
    GammaSpec,
    init_ensemble,
    load_ensemble_snapshots,
    run_filter,
    save_filter_result,
)
from countnet.hawkes import CountSeries, load_count_series, save_count_series
from test_filtering import toy_filter_setup


class TestFilterEdges:
    def test_more_workers_than_nodes_clamped(self):
        _, data, init, cfg = toy_filter_setup(m=3, M=24, n_steps=12)
        reference = run_filter(data, init, cfg, workers=1)
        oversubscribed = run_filter(data, init, cfg, workers=16)
        for a, b in zip(reference.ensembles, oversubscribed.ensembles):
            assert np.array_equal(a.params, b.params)

    def test_node_index_beyond_the_data_rejected(self):
        _, _, init, cfg = toy_filter_setup(m=3)
        with pytest.raises(ValueError, match="node index 3 is not a data column of 3 nodes"):
            Filter(Ensemble(init.intensity[:2], init.params[:2], nodes=[0, 3]), 0.1, cfg)

    def test_permuted_init_rejected(self):
        # rows out of column order, excitation columns permuted to match:
        # the run would write alpha_mean.csv rows in row order but the
        # snapshots hold no node indices, so it is refused
        _, data, init, cfg = toy_filter_setup(m=4, M=30, n_steps=5)
        perm = np.array([2, 0, 3, 1])
        permuted = init.take(perm)
        permuted.params[:, :, 2:] = permuted.params[:, :, 2:][:, :, perm]
        with pytest.raises(ValueError, match="row 0 holds node 2's ensemble"):
            run_filter(CountSeries(data.counts[:, perm], data.dt), permuted, cfg)
        with pytest.raises(ValueError, match="one ensemble per node of 4, not 3"):
            run_filter(data, init.take([0, 1, 2]), cfg)

    def test_zero_bin_run_rejects_ensembles_of_another_width(self):
        # with no bins there is no step to compare the widths
        init = init_ensemble(6, 10, GammaSpec(1.0, 0.5), GammaSpec(5.0, 1.0), GammaSpec(0.3, 0.1), seed=0).draw()
        with pytest.raises(ValueError, match="the ensembles are over 6 nodes, the counts over 3"):
            run_filter(CountSeries(np.zeros((0, 3), dtype=int), 0.1), init.take([0, 1, 2]), FilterConfig(seed=0))

    def test_workers_below_one_rejected(self):
        _, data, init, cfg = toy_filter_setup(m=2, M=12, n_steps=3)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be at least 1"):
                run_filter(data, init, cfg, workers=workers)

    def test_worker_ending_without_a_result_is_an_error(self, monkeypatch):
        # only a forked range runs the worker; it exits at once, while range 0 runs here
        _, data, init, cfg = toy_filter_setup(m=2, M=12, n_steps=3)
        monkeypatch.setattr(filtering, "_range_worker", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="a filter worker process ended without a result"):
            run_filter(data, init, cfg, workers=2)

    @staticmethod
    def recorded_helpers(monkeypatch, tmp_path) -> Path:
        """Force draw helpers (8 usable CPUs) and have the range that starts each, forked ones too,
        write its pid to the returned file: a range that fails at once may end its helper before
        the helper runs a line of its own."""
        pids, start = tmp_path / "helper_pids", multiprocessing.context.ForkProcess.start

        def recorded(proc):
            helper = proc._target is filtering._draw_helper  # start deletes _target
            start(proc)
            if helper:
                with open(pids, "a") as out:
                    out.write(f"{proc.pid}\n")

        monkeypatch.setattr(filtering, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recorded)
        return pids

    @staticmethod
    def assert_no_process_left(pids: Path) -> None:
        # no child of this process, and no helper of any range, forked ones too, still exists
        assert multiprocessing.active_children() == []
        started = [int(pid) for pid in pids.read_text().split()]
        assert started
        for pid in started:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_diverging_run_leaves_no_draw_helper(self, monkeypatch, tmp_path, workers):
        # the run of test_filtering's test_a_diverging_run_raises_without_a_warning fails at step 2,
        # while each range's helper is drawing or waiting to draw
        from countnet.experiments import TOY_DT, toy_priors, toy_truth
        from countnet.hawkes import simulate

        pids = self.recorded_helpers(monkeypatch, tmp_path)
        truth = toy_truth(1.5, 1.5)
        data = simulate(truth, TOY_DT, 1000, 1)
        init = init_ensemble(6, 20, *toy_priors(1.5, 1.5)[:2], GammaSpec(1e150, 1e150), seed=1)
        with pytest.raises(FilterDivergence):
            run_filter(data, init, FilterConfig(seed=1), workers=workers, truth=truth)
        self.assert_no_process_left(pids)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_draw_helper_that_dies_is_an_error(self, monkeypatch, tmp_path, workers):
        # every helper exits with code 3 as it starts its first block, its range's second, of 2 to
        # 6 bins; the range waiting for that block raises at once, without hanging
        _, data, init, cfg = toy_filter_setup(m=3, M=12, n_steps=20)
        pids = self.recorded_helpers(monkeypatch, tmp_path)
        monkeypatch.setattr(filtering, "BLOCK_ELEMENTS", 2 * 2 * 3 * 12)
        draw_block, blocks = filtering._draw_block, []

        def dies_on_its_second_block(*args):
            blocks.append(None)
            if len(blocks) == 2:
                os._exit(3)
            return draw_block(*args)

        monkeypatch.setattr(filtering, "_draw_block", dies_on_its_second_block)
        begin = time.perf_counter()
        with pytest.raises(RuntimeError, match="the draw helper process ended with exit code 3"):
            run_filter(data, init, cfg, workers=workers)
        assert time.perf_counter() - begin < 10
        self.assert_no_process_left(pids)

    def test_a_daemonic_process_runs_without_a_draw_helper(self, monkeypatch):
        # a daemonic process may not fork a helper, so its range draws its own blocks, same bits
        _, data, init, cfg = toy_filter_setup(m=3, M=12, n_steps=10)
        monkeypatch.setattr(filtering, "_usable_cpus", lambda: 8)
        want = run_filter(data, init, cfg).ensembles.params.tobytes()
        conn, child_conn = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.get_context("fork").Process(
            target=lambda: child_conn.send(run_filter(data, init, cfg).ensembles.params.tobytes()), daemon=True)
        proc.start()
        child_conn.close()
        assert conn.recv() == want  # EOFError if the run failed there
        proc.join(10)
        assert proc.exitcode == 0

    def test_failing_first_range_ends_the_forked_ranges(self, monkeypatch):
        # range 0 fails in this process while the forked ranges would run on; none is left running
        _, data, init, cfg = toy_filter_setup(m=3, M=12, n_steps=3)
        started = []

        def slow_worker(*args):
            time.sleep(60)

        def start_then_record(proc):
            started.append(proc)
            start(proc)

        def failing_range(*args):
            raise FilterDivergence(0, 0)

        start = multiprocessing.context.ForkProcess.start
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_then_record)
        monkeypatch.setattr(filtering, "_range_worker", slow_worker)
        monkeypatch.setattr(filtering, "_run_range", failing_range)
        begin = time.perf_counter()
        with pytest.raises(FilterDivergence):
            run_filter(data, init, cfg, workers=3)
        assert time.perf_counter() - begin < 30
        assert len(started) == 2
        assert not any(proc.is_alive() for proc in started)

    def test_ensembles_of_unequal_member_counts_rejected(self):
        # one board holds one member count: 10 intensity members against 12 parameter members
        small = init_ensemble(2, 10, GammaSpec(2.0, 1.0), GammaSpec(5.0, 1.0), GammaSpec(1.0, 0.2), seed=0).draw()
        large = init_ensemble(2, 12, GammaSpec(2.0, 1.0), GammaSpec(5.0, 1.0), GammaSpec(1.0, 0.2), seed=0).draw()
        message = r"intensity \(2, 10\) and params \(2, 12, 4\) are not \(n, M\) and \(n, M, m\+2\)"
        with pytest.raises(ValueError, match=message):
            Filter(Ensemble(small.intensity, large.params), 0.1, FilterConfig(seed=0))

    def test_duplicate_nodes_rejected(self):
        # two rows of node 0 would share its analysis stream and turn identical
        init = init_ensemble(2, 10, GammaSpec(2.0, 1.0), GammaSpec(5.0, 1.0), GammaSpec(1.0, 0.2), seed=0).draw()
        with pytest.raises(ValueError, match="node 0 has more than one ensemble"):
            Filter(init.take([0, 0]), 0.1, FilterConfig(0))
        with pytest.raises(ValueError, match="node 1 has more than one ensemble"):
            Ensemble(init.intensity, init.params, nodes=[1, 1])

    def test_non_positive_dt_rejected(self):
        _, _, init, cfg = toy_filter_setup(m=2, M=12)
        for dt in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="dt must be positive"):
                Filter(init, dt, cfg)

    def test_non_finite_or_negative_parameters_rejected(self):
        for bad in (np.nan, np.inf, -0.5):
            _, _, init, cfg = toy_filter_setup(m=3, M=20)
            init[1].params[4, 2] = bad  # through the row view, after the board was checked
            with pytest.raises(ValueError, match="node 1's parameter members"):
                Filter(init, 0.1, cfg)

    def test_intensity_below_floor_is_lifted(self):
        # gamma shape < 1 priors legitimately draw near-zero baselines;
        # emulate such a draw explicitly
        init = init_ensemble(
            1, 64, GammaSpec(2.0, 8.0), GammaSpec(2.0, 8.0), GammaSpec(0.5, 0.25), seed=3
        ).draw()
        init[0].intensity[0] = 1e-12
        cfg = FilterConfig(seed=3)
        data = CountSeries(np.ones((5, 1), dtype=np.uint64), 0.1)
        result = run_filter(data, init, cfg)
        assert (result.ensembles[0].intensity >= filtering.POSITIVITY_FLOOR).all()


TESTS = Path(__file__).resolve().parent


def run_script(script: str, *args, blas_threads: int = 1) -> str:
    """Run ``script`` in a fresh interpreter with the package and the tests importable and
    ``blas_threads`` BLAS threads; its stdout."""
    threads = str(blas_threads)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]),
           "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


SPAWN_DEFAULT = """
import multiprocessing
multiprocessing.set_start_method("spawn", force=True)
from countnet.filtering import run_filter
from test_filtering import toy_filter_setup

_, data, init, cfg = toy_filter_setup(m=5, M=20, n_steps=15)
serial, parallel = (run_filter(data, init, cfg, workers=w).ensembles for w in (1, 2))
assert parallel.intensity.tobytes() == serial.intensity.tobytes()
assert parallel.params.tobytes() == serial.params.tobytes()
"""

# A run as the CLI makes it: the prior source straight into run_filter, then
# the save. argv: workers, m, M, n_steps, score against a truth (0/1), result
# directory. Prints the board's and the truth curves' bytes, the RSS before
# init_ensemble, and the peak RSS of this process and of its workers after the
# save (with a truth, of the error curves and metrics.json too), in KiB. This
# process's peak is VmHWM: its ru_maxrss also holds the peak of the process it
# was started from, before the exec.
MEMORY = """
import resource, sys
import numpy as np
from countnet.filtering import _CURVE_KEYS, FilterConfig, GammaSpec, init_ensemble, run_filter, save_filter_result
from countnet.hawkes import CountSeries, HawkesParams
from countnet.network import error_metrics

def status_kib(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(key + ":"))

workers, m, M, n_steps, scored = map(int, sys.argv[1:6])
data = CountSeries(np.random.default_rng(0).poisson(1.0, size=(n_steps, m)).astype(np.uint64), 0.1)
truth = HawkesParams(np.ones(m), np.full(m, 5.0), np.full((m, m), 0.01)) if scored else None
before = status_kib("VmRSS")
init = init_ensemble(m, M, GammaSpec(1.0, 0.5), GammaSpec(5.0, 1.0), GammaSpec(0.01, 0.0001), seed=0)
result = run_filter(data, init, FilterConfig(seed=0), workers=workers, truth=truth)
report = error_metrics(result.history) if scored else None
save_filter_result(result, sys.argv[6], report)
curves = 0
if scored:
    assert np.isfinite(report["frobenius"]).all()
    curves = sum(result.history[key].nbytes for key in _CURVE_KEYS)
board = result.ensembles.intensity.nbytes + result.ensembles.params.nbytes
workers_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(board // 1024, curves // 1024, before, status_kib("VmHWM"), workers_peak)
"""


class TestSharedBoard:
    def test_workers_fork_under_another_default_start_method(self):
        # the workers inherit the result board; a spawned one would fill a pickled copy
        run_script(SPAWN_DEFAULT)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_of_a_run_and_its_save(self, tmp_path, workers):
        # m=160, M=128: a 25 MB board. Each range draws its rows straight into
        # the shared board, so the caller holds one board and one block of
        # scratch, and a worker adds its own rows to what it inherits
        board, _, before, own, children = map(int, run_script(MEMORY, workers, 160, 128, 5, 0, tmp_path / "r").split())
        assert own - before <= 1.2 * board
        assert children - before <= 0.75 * board

    def test_peak_memory_of_a_truth_scored_run(self, tmp_path):
        # m=60, M=16, 400 steps: seven (401, 60) curves, 1.3 MB, against a 0.5 MB board; the
        # workers write their columns of the curves in the shared map. The error curves are
        # a second set, and a run without a truth grows by about 2 MiB (the workers' pipes and
        # modules). Two (401, 60, 62) boards of parameter means and variances, 24 MB, would not fit.
        board, curves, before, own, _ = map(int, run_script(MEMORY, 2, 60, 16, 400, 1, tmp_path / "r").split())
        bound = 1.2 * board + 2 * curves + 2048
        assert curves == 7 * 401 * 60 * 8 // 1024 and bound < 2 * 401 * 60 * 62 * 8 // 1024 / 4
        assert own - before <= bound


# A net100-sized filter run (m=100, M=128, 30 bins); prints the sha256 of the final board.
BOARD_HASH = """
import hashlib
import numpy as np
from countnet.filtering import FilterConfig, GammaSpec, init_ensemble, run_filter
from countnet.hawkes import CountSeries

data = CountSeries(np.random.default_rng(0).poisson(0.5, size=(30, 100)).astype(np.uint64), 0.1)
init = init_ensemble(100, 128, GammaSpec(1.0, 0.5), GammaSpec(5.0, 1.0), GammaSpec(0.01, 0.0001), seed=0)
board = run_filter(data, init, FilterConfig(seed=0)).ensembles
print(hashlib.sha256(board.intensity.tobytes() + board.params.tobytes()).hexdigest())
"""


class TestBlasThreads:
    def test_the_board_does_not_depend_on_blas_threads(self):
        # the forecast is a BLAS product, which a BLAS library may split over its threads
        assert run_script(BOARD_HASH, blas_threads=1) == run_script(BOARD_HASH, blas_threads=2)


# Loads the counts CSV argv[1]; prints the counts' bytes, then VmHWM before and after the load, in KiB.
LOAD_MEMORY = """
import sys
from countnet.hawkes import load_count_series

def status_kib(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(key + ":"))

before = status_kib("VmHWM")
series, _ = load_count_series(sys.argv[1])
print(series.counts.nbytes // 1024, before, status_kib("VmHWM"))
"""


# Loads the snapshot archive of the result directory argv[1] and runs analyze's readers of the
# board over it; prints the board's bytes, then RssAnon before the load and its largest value after
# the load and after each reader, in KiB. A mapped board's pages are file pages, outside RssAnon.
ANALYZE_MEMORY = """
import sys
from countnet.filtering import load_ensemble_snapshots
from countnet.network import mean_network, rank_distribution

def status_kib(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(key + ":"))

before = status_kib("RssAnon")
ensembles = load_ensemble_snapshots(sys.argv[1])
after = [status_kib("RssAnon")]
mean_network(ensembles)
after.append(status_kib("RssAnon"))
rank_distribution(ensembles, "out_degree")
after.append(status_kib("RssAnon"))
print((ensembles.intensity.nbytes + ensembles.params.nbytes) // 1024, before, max(after))
"""


class TestLoadMemory:
    def test_peak_memory_of_a_counts_load(self, tmp_path):
        # 50,000 x 100 counts, a 38 MiB board: the rows go into one board grown
        # in place, and CountSeries keeps that uint64 board instead of copying it
        counts = np.random.default_rng(0).poisson(1.0, size=(50_000, 100)).astype(np.uint64)
        save_count_series(CountSeries(counts, 0.1), tmp_path / "counts.csv")
        board, before, peak = map(int, run_script(LOAD_MEMORY, tmp_path / "counts.csv").split())
        assert peak - before <= 1.5 * board

    def test_analyze_reads_the_archive_in_place(self, tmp_path):
        # m=160, M=128: a 25 MB board, which the load maps from the archive; the readers
        # go over it in blocks, so no copy of it is made
        g = np.random.default_rng(0)
        board = Ensemble(g.gamma(2.0, size=(160, 128)), g.gamma(2.0, size=(160, 128, 162)))
        save_filter_result(FilterResult(board, FilterConfig(seed=0), 0, 0.1), tmp_path / "res")
        del board
        board, before, anon = map(int, run_script(ANALYZE_MEMORY, tmp_path / "res").split())
        assert anon - before < 0.25 * board


class TestCliEdges:
    def test_aggregate_with_cleaning(self, tmp_path):
        events = tmp_path / "events.csv"
        lines = ["timestamp,sender"]
        # busy node all three days, quiet node once; middle day nearly empty
        for day in (0, 2):
            for k in range(6):
                lines.append(f"{day * 24 + k + 1}.0,busy")
        lines.append("25.0,quiet")
        events.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "agg.json"
        cfg.write_text(
            json.dumps(
                {
                    "events_path": str(events),
                    "dt": 1.0,
                    "clean": True,
                    "min_node_total": 3,
                    "dead_day_threshold": 1,
                    "t0": 0.0,
                    "t1": 72.0,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["aggregate", "--config", str(cfg), "--seed", "0", "--out-dir", str(out)]) == 0
        report = json.loads((out / "cleaning.json").read_text())
        assert report["removed_nodes"] == ["quiet"]
        assert report["removed_days"] == [1]
        series, _ = load_count_series(out / "counts.csv")
        assert series.node_labels == ["busy"]
        assert int(series.counts.sum()) == 12
        assert series.n_steps == 48  # three days spliced to two

    def test_analyze_absolute_threshold(self, tmp_path):
        _, data, init, cfg = toy_filter_setup(m=3, M=20, n_steps=10)
        result = run_filter(data, init, cfg)
        save_filter_result(result, tmp_path / "res")
        ana = tmp_path / "ana.json"
        ana.write_text(
            json.dumps(
                {
                    "result_dir": str(tmp_path / "res"),
                    "measure": "betweenness",
                    "threshold": {"absolute": 0.01},
                }
            )
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(out)]) == 0
        assert (out / "rank_betweenness.csv").exists()
        payload = json.loads((out / "subnetwork.json").read_text())
        assert all(w == 0 or w > 0.01 for row in payload["adjacency"] for w in row)

    def test_non_finite_snapshot_rejected(self, tmp_path, capsys):
        _, data, init, cfg = toy_filter_setup(m=3, M=20, n_steps=10)
        save_filter_result(run_filter(data, init, cfg), tmp_path / "res")
        archive = tmp_path / "res" / "ensembles" / "ensembles.npz"
        with np.load(archive) as npz:
            intensity, params = npz["intensity"], npz["params"]

        def write_excitation_cell(value):
            tampered = params.copy()
            tampered[2, 5, 2] = value
            np.savez(archive, intensity=intensity, params=tampered)

        message = f"{archive}: node 2's parameter members must be finite and non-negative"
        for bad in (np.nan, np.inf, -0.25):
            write_excitation_cell(bad)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_ensemble_snapshots(tmp_path / "res")
        write_excitation_cell(np.nan)
        ana = tmp_path / "ana.json"
        ana.write_text(json.dumps({"result_dir": str(tmp_path / "res"), "measure": "betweenness"}))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "network.json").exists()

    @pytest.mark.parametrize("damage", ["compressed", "not a zip", "flipped byte"])
    def test_a_damaged_archive_is_not_analyzed(self, tmp_path, capsys, damage):
        _, data, init, cfg = toy_filter_setup(m=3, M=20, n_steps=10)
        res = run_filter(data, init, cfg)
        save_filter_result(res, tmp_path / "res")
        archive = tmp_path / "res" / "ensembles" / "ensembles.npz"
        raw = bytearray(archive.read_bytes())
        if damage == "compressed":
            np.savez_compressed(archive, intensity=res.ensembles.intensity, params=res.ensembles.params)
            message = f"{archive}: entry intensity.npy is compressed; the entries must be stored"
        elif damage == "not a zip":  # np.load took it for a pickle, which it refused
            archive.write_text("intensity,params\n1,2\n")
            message = f"{archive}: not a zip archive"
        else:
            raw[raw.find(res.ensembles.params.tobytes()) + 17] ^= 0x10
            archive.write_bytes(raw)
            message = f"{archive}: entry params.npy: bad CRC-32"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_ensemble_snapshots(tmp_path / "res")
        ana = tmp_path / "ana.json"
        ana.write_text(json.dumps({"result_dir": str(tmp_path / "res")}))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "network.json").exists()

    def test_archive_with_a_gap_is_not_analyzed(self, tmp_path, capsys):
        # boards of nodes 0 and 1 of a 3-node network: node 2 is missing
        gen = np.random.default_rng(5)
        (tmp_path / "res" / "ensembles").mkdir(parents=True)
        np.savez(tmp_path / "res" / "ensembles" / "ensembles.npz",
                 intensity=gen.gamma(2.0, size=(2, 4)), params=gen.gamma(2.0, size=(2, 4, 5)))
        (tmp_path / "res" / "result.json").write_text("{}")
        ana = tmp_path / "ana.json"
        ana.write_text(json.dumps({"result_dir": str(tmp_path / "res")}))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(out)]) == 2
        assert "one ensemble per node of 3, not 2" in capsys.readouterr().err
        assert not (out / "network.json").exists()

    def test_csv_snapshots_are_not_read(self, tmp_path, capsys):
        # result directories from before the archive format need a re-run
        snap_dir = tmp_path / "res" / "ensembles"
        snap_dir.mkdir(parents=True)
        np.savetxt(snap_dir / "node_0000.csv", np.ones((4, 4)), delimiter=",")
        with pytest.raises(FileNotFoundError, match="ensembles.npz"):
            load_ensemble_snapshots(tmp_path / "res")
        ana = tmp_path / "ana.json"
        ana.write_text(json.dumps({"result_dir": str(tmp_path / "res")}))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(out)]) == 2
        assert "ensembles.npz" in capsys.readouterr().err
        assert not (out / "network.json").exists()

    def test_retired_decoupled_regression_key_is_ignored(self, tmp_path):
        # the per-parameter regression equalled the joint gain and is gone;
        # configs that still carry the key run unchanged
        _, data, _, _ = toy_filter_setup(m=2, n_steps=15)
        counts = tmp_path / "counts.csv"
        save_count_series(data, counts)
        outs = []
        for extra in ({}, {"decoupled_regression": True}):
            cfg = tmp_path / f"f{len(outs)}.json"
            cfg.write_text(json.dumps({
                "counts_path": str(counts),
                "ensemble_size": 12,
                "priors": {
                    "baseline": {"mean": 2.0, "variance": 1.0},
                    "decay": {"mean": 5.0, "variance": 1.0},
                    "excitation": {"mean": 1.0, "variance": 0.2},
                },
                **extra,
            }))
            outs.append(tmp_path / f"o{len(outs)}")
            assert main(["filter", "--config", str(cfg), "--seed", "0", "--out-dir", str(outs[-1])]) == 0
        for name in ("result.json", "alpha_mean.csv", "ensembles/ensembles.npz"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        config = json.loads((outs[0] / "result.json").read_text())["config"]
        assert "decoupled_regression" not in config

    def test_negative_seed_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"s1": 1.5, "s2": 1.5}))
        assert main(["experiment-1", "--config", str(cfg), "--seed", "-3", "--out-dir", str(tmp_path / "o")]) == 1

    def test_missing_sidecar_is_runtime_failure(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("t,node_1\n0,1\n")
        cfg = tmp_path / "f.json"
        cfg.write_text(
            json.dumps(
                {
                    "counts_path": str(counts),
                    "ensemble_size": 8,
                    "priors": {
                        "baseline": {"mean": 2.0, "variance": 1.0},
                        "decay": {"mean": 5.0, "variance": 1.0},
                        "excitation": {"mean": 1.0, "variance": 0.2},
                    },
                }
            )
        )
        assert main(["filter", "--config", str(cfg), "--seed", "0", "--out-dir", str(tmp_path / "o")]) == 2
