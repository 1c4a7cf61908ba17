"""A process killed at any write leaves a workdir that one rerun repairs.

A forked child runs a case and os._exits at its k-th write event, for
k = 1, 2, ... until a child finishes first. The events are each block
persist._write_atomic writes, each os.replace, and each Path.unlink,
Path.rmdir and shutil.rmtree (each entry of a stage directory _stage or
_finish removes, the directory itself, and a killed write's temp file). After each kill the parent checks what a
reader may see at once, reruns the case once, and compares every path under
the workdir, hidden ones included, with a fresh run's. This is ALICE's
enumeration of persistence points (Pillai et al., "All File Systems Are Not
Created Equal", OSDI 2014) at the granularity of these calls; a kill cannot
show what a power loss does, and no write is fsynced.
"""
import json
import os
import shutil
import traceback
from pathlib import Path

import pytest

from qthreat import harness, persist
from qthreat.harness import ExperimentConfig

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

KILLED = 75  # the exit code of a child killed at its k-th event


def _die_at(k):
    """From now on, exit this process with KILLED just before its k-th write event."""
    seen = [0]

    def event():
        seen[0] += 1
        if seen[0] == k:
            os._exit(KILLED)

    def before(fn):
        def wrapped(*args, **kwargs):
            event()
            return fn(*args, **kwargs)
        return wrapped

    write = persist._write_atomic
    persist._write_atomic = lambda path, blocks: write(path, (b for b in blocks if event() is None))
    os.replace = before(os.replace)
    Path.unlink = before(Path.unlink)
    Path.rmdir = before(Path.rmdir)
    shutil.rmtree = before(shutil.rmtree)


def _killed(k, run, work) -> bool:
    """Run run(work) in a forked child killed at its k-th write event; False
    when the child finished before it."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _die_at(k)
            run(work)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    assert code in (0, KILLED), f"the child failed before its write event {k}, exit code {code}"
    return code == KILLED


def _tree(root):
    """Every path under root, hidden ones included: relative path -> bytes,
    or None for a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


def _no_torn_json(root):
    # every JSON file under its own name is a complete write; a torn one
    # only ever sits under a _write_atomic temp name
    for p in root.rglob("*.json"):
        json.loads(p.read_bytes())


def _every_kill_is_repaired(template, run, work, check=_no_torn_json) -> int:
    """Kill run(work), started from a copy of `template`, at every write
    event in turn; after each kill, check(work), then one rerun must give
    the fresh run's tree. Returns the number of kill points."""
    shutil.copytree(template, work)
    run(work)
    fresh = _tree(work)
    k = 0
    while True:
        shutil.rmtree(work)
        shutil.copytree(template, work)
        if not _killed(k + 1, run, work):
            assert _tree(work) == fresh
            return k
        k += 1
        check(work)
        run(work)
        assert _tree(work) == fresh, f"a rerun after a kill at write event {k} differs"


@pytest.fixture(scope="module")
def kill_config(nslkdd_dir, lingspam_dir):
    def build(**over):
        base = dict(
            experiment_id="kill", dataset="nslkdd", model="qsvm",
            train_path=str(nslkdd_dir / "KDDTrain+.txt"),
            test_path=str(nslkdd_dir / "KDDTest+.txt"),
            qubits=2, reps=1, reupload=1, hidden_sizes=(8,), embed_dim=4, dropout=0.0,
            epochs=1, batch_size=64, patience=1, c_grid=(1.0,), cv_folds=2, max_train=80,
        )
        if over.get("dataset") == "lingspam":
            base.update(train_path="", test_path="", corpus_path=str(lingspam_dir))
        base.update(over)
        return ExperimentConfig(**base)

    return build


@pytest.fixture(scope="module")
def qsvm_template(kill_config, tmp_path_factory):
    """A complete mini QSVM bundle, the starting workdir of the baseline and stream cases."""
    d = tmp_path_factory.mktemp("kill-qsvm") / "bundle"
    harness.run_experiment(kill_config(), d)
    return d


# Kill points of a run from an empty workdir: a block and a rename per file
# and per stage marker, config.json and two manifest writes. The QSVM's are
# 16 blocks and 16 renames; the Ling-Spam VQC's CSR files take a block per
# array. The baseline run starts in the QSVM bundle: its preprocess and
# encoder stages resume, and _finish removes svm/ in three events
# (svm.json, then stage.json, then the directory).
@pytest.mark.parametrize("model,dataset,start,points", [
    ("qsvm", "nslkdd", "empty", 32),
    ("vqc", "lingspam", "empty", 44),
    ("classical-baseline", "nslkdd", "qsvm bundle", 13),
], ids=["qsvm", "vqc", "baseline-in-a-qsvm-bundle"])
def test_a_run_killed_at_any_write_is_repaired_by_one_rerun(
    kill_config, qsvm_template, tmp_path, model, dataset, start, points
):
    config = kill_config(model=model, dataset=dataset)
    template = qsvm_template if start == "qsvm bundle" else tmp_path / "empty"
    template.mkdir(exist_ok=True)
    assert _every_kill_is_repaired(
        template, lambda w: harness.run_experiment(config, w), tmp_path / "work"
    ) == points


def test_a_matrix_killed_at_any_write_is_repaired_by_one_rerun(kill_config, tmp_path):
    configs = [
        kill_config(experiment_id="m-qsvm"),
        kill_config(experiment_id="m-base", model="classical-baseline"),
    ]
    (tmp_path / "empty").mkdir()
    points = _every_kill_is_repaired(
        tmp_path / "empty", lambda w: harness.run_matrix(configs, w), tmp_path / "work"
    )
    assert points == 32 + 32 + 4  # the two cells, then matrix.json and matrix.txt


def test_a_stream_killed_at_any_write_leaves_the_old_audit_or_the_new_one(
    kill_config, qsvm_template, tmp_path
):
    template = tmp_path / "template"
    shutil.copytree(qsvm_template, template)
    manifest = persist.load_json(template / "manifest.json")
    audit = template / "stream_audit.csv"
    harness.evaluate_streaming(template, subset_size=10)
    old = audit.read_bytes()
    harness.evaluate_streaming(template, subset_size=20, audit_path=tmp_path / "new.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert old != new

    def check(work):
        assert (work / "stream_audit.csv").read_bytes() in (old, new)
        assert harness.evaluate_bundle(work)["metrics"] == manifest["metrics"]

    points = _every_kill_is_repaired(
        template, lambda w: harness.evaluate_streaming(w, subset_size=20), tmp_path / "work", check
    )
    assert points == 2  # the audit's one block and its rename
