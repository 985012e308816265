"""capkit benchmark: seeded workloads through ``capkit.pipeline.run_pipeline``.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds ``src/capkit``. Each workload is
a closed loop: one client runs one batch (one ``run_pipeline`` call over
the workload's timed stages) at a time. It first sets the workload
up ``SETUP_REPS`` times, then runs batches while the next one is expected
to end within ``--seconds`` (at least one). Every set-up and every batch
runs in a fresh interpreter, one at a time, and every batch's outputs are
checked.

End-to-end metrics (``--trace 0``), each a median over the run:

* ``run_s``: wall time of one batch;
* ``setup_s``: wall time of one set-up process: interpreter start and
  imports, input generation and untimed preparation (decode-bigvocab also
  ingests and trains both LMs). Work a change moves into import time
  shows here, since batches start their clock after the imports;
* ``peak_rss_mb``: peak resident memory of a set-up or batch process.

With ``--trace 1`` the same run is followed by one traced set-up and one
traced batch, and the per-layer metrics come from their spans. All output
lines but the last are for people; the last is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import ALL_STAGES, STAGE_ARTIFACTS, SYSTEM_FILES, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
LAYERS = ("pipeline", "corpus", "knn", "maxent", "recurrent", "decoding", "rerank",
          "metrics", "analysis", "artifacts")
# Tracer counters that hold a size rather than a running count.
MAX_COUNTERS = ("maxent.candidates", "decoding.nbest.requested", "corpus.vocab")


class RunFailed(Exception):
    """A child process or an output check failed; the run is not correct."""


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
    }


def run_child(phase, workload, seed, job_dir, inputs_dir, trace) -> dict:
    """Run one phase in a fresh interpreter and return its result record."""
    os.makedirs(job_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), phase, workload.name,
           str(seed), job_dir, inputs_dir, str(trace)]
    start = time.perf_counter()
    with open(os.path.join(job_dir, "child.log"), "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{phase} in {job_dir} timed out") from exc
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        with open(os.path.join(job_dir, "child.log"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RunFailed(f"{phase} in {job_dir} exited {proc.returncode}:\n{tail}")
    with open(os.path.join(job_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    expected = os.path.join(ROOT, "src", "capkit")
    if os.path.dirname(result["capkit_file"]) != expected:
        raise RunFailed(f"child imported capkit from {result['capkit_file']}, not {expected}")
    result["process_s"] = wall_s
    return result


def setup_digest(job) -> dict[str, str]:
    """sha256 of every input and prepared file of a set-up, by relative path."""
    digests = {}
    for sub in ("inputs", "out"):
        for dirpath, _, filenames in os.walk(os.path.join(job, sub)):
            for name in filenames:
                full = os.path.join(dirpath, name)
                with open(full, "rb") as fh:
                    digests[os.path.relpath(full, job)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def tree_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def _read_tsv(path, n_fields):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != n_fields:
                raise RunFailed(f"{path}:{lineno}: expected {n_fields} tab-separated fields")
            rows.append(parts)
    return rows


def check_outputs(workload, out_dir) -> tuple[set[int], dict]:
    """Check one batch's outputs.

    Returns the testval image ids whose outputs fail a check, and the eval
    BLEU scores. Raises RunFailed for a defect of the batch as a whole.
    """
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for stage in workload.manifest_stages():
        listed = manifest.get("stages", {}).get(stage, {})
        for name in STAGE_ARTIFACTS[stage]:
            if name not in listed:
                raise RunFailed(f"manifest lacks {name} of stage {stage}")
        for name, digest in listed.items():
            with open(os.path.join(out_dir, name), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != digest:
                    raise RunFailed(f"{name} does not match its manifest checksum")
    with open(os.path.join(out_dir, "split.json"), encoding="utf-8") as fh:
        testval = sorted(int(i) for i in json.load(fh)["testval"])
    if len(testval) != workload.split[2]:
        raise RunFailed(f"split.json lists {len(testval)} testval images")
    max_len = workload.hyperparameters.get("max_len")
    failed: set[int] = set()
    for system in workload.systems:
        captions = {int(i): cap.split() for i, cap in _read_tsv(
            os.path.join(out_dir, SYSTEM_FILES[system]), 2)}
        for image_id in testval:
            tokens = captions.get(image_id)
            # A finished decode spends one of max_len steps on END, so a
            # caption of max_len tokens is an incomplete partial.
            if not tokens or (system == "mrnn" and len(tokens) >= max_len):
                failed.add(image_id)
    if "decode" in workload.stages:
        for split_name in ("val", "testval"):
            failed |= check_nbest(workload, os.path.join(out_dir, f"me_nbest_{split_name}.tsv"))
        with open(os.path.join(out_dir, "split.json"), encoding="utf-8") as fh:
            val = {int(i) for i in json.load(fh)["val"]}
        if failed & val:
            raise RunFailed(f"validation n-best lists failed checks: {sorted(failed & val)}")
    with open(os.path.join(out_dir, "scores.json"), encoding="utf-8") as fh:
        scores = {system: row["bleu"] for system, row in json.load(fh).items()}
    if set(scores) != set(workload.systems):
        raise RunFailed(f"scores.json scores {sorted(scores)}, expected {list(workload.systems)}")
    if workload.name == "fixture-e2e" and not scores["knn_consensus"] > scores["knn_onenn"]:
        raise RunFailed("consensus BLEU does not beat 1-NN BLEU on the fixture")
    return failed & set(testval), scores


def check_nbest(workload, path) -> set[int]:
    """Ids whose n-best list is unsorted, oversized, unranked or incomplete."""
    hp = workload.hyperparameters
    lists: dict[int, list] = {}
    for image_id, rank, caption, features in _read_tsv(path, 4):
        row = dict(f.split("=", 1) for f in features.split(";") if f)
        lists.setdefault(int(image_id), []).append(
            (int(rank), float(row["logprob"]), len(caption.split()))
        )
    bad = set()
    for image_id, hyps in lists.items():
        ranks = [r for r, _, _ in hyps]
        logprobs = [lp for _, lp, _ in hyps]
        if (ranks != list(range(1, len(hyps) + 1)) or len(hyps) > hp["nbest"]
                or any(a < b for a, b in zip(logprobs, logprobs[1:]))
                or hyps[0][2] >= hp["max_len"]):
            bad.add(image_id)
    return bad


class Run:
    """One benchmark invocation: set-ups, timed batches, checks and results."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.manifest: bytes | None = None
        self.scores: dict = {}
        self.child_env: dict = {}

    def setup(self, tag, trace=0) -> tuple[dict, str]:
        job = os.path.join(self.work_dir, tag)
        inputs = os.path.join(job, "inputs")
        result = run_child("setup", self.workload, self.seed, job, inputs, trace)
        self.child_env = {"numpy": result["numpy"], "blas_threads": result["blas_threads"]}
        return result, job

    def batch(self, tag, setup_job, trace=0) -> dict:
        job = os.path.join(self.work_dir, tag)
        shutil.copytree(os.path.join(setup_job, "out"), os.path.join(job, "out"))
        n_images = self.workload.split[2]
        self.attempted += n_images
        try:
            result = run_child("rep", self.workload, self.seed, job,
                               os.path.join(setup_job, "inputs"), trace)
            failed, scores = check_outputs(self.workload, os.path.join(job, "out"))
            with open(os.path.join(job, "out", "manifest.json"), "rb") as fh:
                manifest = fh.read()
            if self.manifest is not None and manifest != self.manifest:
                raise RunFailed("manifest differs between repetitions")
        except (RunFailed, OSError, ValueError, KeyError) as exc:
            self.failed += n_images
            raise RunFailed(f"{tag}: {exc}") from exc
        self.manifest = manifest
        self.scores = scores
        self.failed += len(failed)
        if failed:
            self.problems.append(f"{tag}: outputs failed checks for images {sorted(failed)}")
        return result


def span_metrics(traces, out_dir) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced set-up and batch."""
    by_name: dict[str, list[float]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    counters: dict[str, float] = {}
    absent: set[str] = set()
    for trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, layer, start, end, parent in spans:
            by_name.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_s[parent] += end - start
        for (name, layer, start, end, _), covered in zip(spans, child_s):
            self_s[layer] += (end - start) - covered
        for key, value in trace["counters"].items():
            if key in MAX_COUNTERS:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        absent.update(trace["absent"])

    def total(name):
        return sum(by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def p50(name):
        return statistics.median(by_name[name]) if name in by_name else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"stage.{s}.s": (total(f"stage.{s}"), "s") for s in ALL_STAGES}
    m.update({
        "corpus.load.s": (total("corpus.load"), "s"),
        "corpus.captions": (counters["corpus.captions"], "count"),
        "corpus.vocab": (counters["corpus.vocab"], "count"),
        "knn.nearest.calls": (calls("knn.nearest"), "count"),
        "knn.nearest.s": (total("knn.nearest"), "s"),
        "knn.consensus.calls": (calls("knn.consensus"), "count"),
        "knn.consensus.s": (total("knn.consensus"), "s"),
        "knn.consensus.p50_s": (p50("knn.consensus"), "s"),
        "knn.consensus.max_s": (max(by_name.get("knn.consensus", [0.0])), "s"),
        "knn.consensus.pool": (ratio(counters["knn.consensus.pool_total"],
                                     calls("knn.consensus")), "count"),
        "knn.consensus.pairs": (counters["knn.consensus.pairs"], "count"),
        "maxent.train.s": (total("maxent.train"), "s"),
        "maxent.train.events": (counters["maxent.train.events"], "count"),
        "maxent.logprobs.calls": (calls("maxent.logprobs"), "count"),
        "maxent.logprobs.s": (total("maxent.logprobs"), "s"),
        "maxent.logprobs.us_per_call": (
            1e6 * ratio(total("maxent.logprobs"), calls("maxent.logprobs")), "us"),
        "maxent.candidates": (counters["maxent.candidates"], "count"),
        "recurrent.train.s": (total("recurrent.train"), "s"),
        "recurrent.train.tokens": (counters["recurrent.train.tokens"], "count"),
        "recurrent.step.calls": (calls("recurrent.step"), "count"),
        "recurrent.step.s": (total("recurrent.step"), "s"),
        "recurrent.steps_per_use": (ratio(calls("recurrent.step"),
                                          calls("decoding.scorer.recurrent")), "ratio"),
        "decoding.coverage.s": (total("decoding.coverage"), "s"),
        "decoding.coverage.p50_s": (p50("decoding.coverage"), "s"),
        "decoding.beam.s": (total("decoding.beam"), "s"),
        "decoding.rescore.s": (total("decoding.rescore"), "s"),
        "decoding.scorer_calls": (calls("decoding.scorer.maxent")
                                  + calls("decoding.scorer.recurrent"), "count"),
        "decoding.nbest.requested": (counters["decoding.nbest.requested"], "count"),
        "decoding.nbest.realized_mean": (ratio(counters["decoding.nbest.realized_total"],
                                               counters["decoding.nbest.lists"]), "count"),
        "decoding.incomplete": (counters["decoding.incomplete"], "count"),
        "rerank.mert.s": (total("rerank.mert"), "s"),
        "rerank.line_envelope.calls": (calls("rerank.line_envelope"), "count"),
        "rerank.line_envelope.s": (total("rerank.line_envelope"), "s"),
        "rerank.apply_weights.calls": (calls("rerank.apply_weights"), "count"),
        "metrics.bleu_stats.calls": (calls("metrics.bleu_stats"), "count"),
        "metrics.bleu_stats.s": (total("metrics.bleu_stats"), "s"),
        "metrics.meteor.s": (total("metrics.meteor"), "s"),
        "analysis.overlap_bins.s": (total("analysis.overlap_bins"), "s"),
        "analysis.repetition.s": (total("analysis.repetition"), "s"),
        "artifacts.read.s": (total("artifacts.read"), "s"),
        "artifacts.write.s": (total("artifacts.write"), "s"),
        "artifacts.bytes": (tree_bytes(out_dir), "bytes"),
        "trace.absent": (len(absent), "count"),
    })
    m.update({f"layer.{layer}.self_s": (self_s[layer], "s") for layer in LAYERS})
    return m, sorted(absent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "capkit", "pipeline.py")):
        print(f"error: no capkit sources under {ROOT}/src", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run = Run(workload, args.seed, work_dir)
    env = environment()
    try:
        setups = [run.setup(f"setup{i}") for i in range(SETUP_REPS)]
        reference = setup_digest(setups[0][1])
        for _, job in setups[1:]:
            if setup_digest(job) != reference:
                raise RunFailed("set-up is not deterministic: outputs differ between set-ups")
        reps = []
        loop_start = time.perf_counter()
        while not reps or (time.perf_counter() - loop_start
                           + statistics.mean(r["process_s"] for r in reps) <= args.seconds):
            reps.append(run.batch(f"rep{len(reps)}", setups[0][1]))
        run_s = statistics.median(r["seconds"] for r in reps)
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (statistics.median(r["process_s"] for r, _ in setups), "s"),
            "peak_rss_mb": (max(statistics.median(r["rss_mb"] for r, _ in setups),
                                statistics.median(r["rss_mb"] for r in reps)), "MB"),
        }
        print(f"# {workload.name} seed {args.seed}: set-up times "
              + " ".join(f"{r['process_s']:.3f}" for r, _ in setups)
              + "; batch times " + " ".join(f"{r['seconds']:.3f}" for r in reps))
        absent: list[str] = []
        if args.trace:
            traced_setup, setup_job = run.setup("trace_setup", trace=1)
            if setup_digest(setup_job) != reference:
                raise RunFailed("traced set-up differs from the untraced ones")
            traced = run.batch("trace_rep", setup_job, trace=1)
            metrics, absent = span_metrics(
                [traced_setup["trace"], traced["trace"]],
                os.path.join(work_dir, "trace_rep", "out"))
            metrics["trace.overhead_s"] = (traced["seconds"] - run_s, "s")
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"# work directory kept for inspection: {work_dir}", file=sys.stderr)
        print("# environment " + json.dumps({**env, **run.child_env}, sort_keys=True))
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": max(run.failed, 1), "metrics": {}}))
        return 1
    shutil.rmtree(work_dir, ignore_errors=True)

    # Output quality: printed on every run; part of the JSON only when
    # traced, because BLEU exists only for the systems a workload runs
    # and failed_frac is normally 0 (the JSON's "failed" carries it).
    quality = {"failed_frac": (run.failed / run.attempted, "fraction")}
    for system in SYSTEM_FILES:
        quality[f"bleu.{system}"] = (run.scores.get(system), "BLEU")
    print("# environment " + json.dumps({**env, **run.child_env}, sort_keys=True))
    print(f"# {run.failed} of {run.attempted} captioned test images failed")
    for problem in run.problems:
        print(f"# {problem}")
    if absent:
        print("# absent entry points: " + ", ".join(absent))
    for name, (value, unit) in {**metrics, **quality}.items():
        shown = "n/a" if value is None else f"{value:.6f}"
        print(f"{name:34s} {shown:>18s} {unit}")
    if args.trace:
        metrics.update({name: (value or 0.0, unit) for name, (value, unit) in quality.items()})
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
