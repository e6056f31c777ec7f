"""The CLI's bytes, pinned: every probe of `tests/sweep.py` has a digest in
the manifest, the command probes and the seed-1 suite probes on
`fixtures/qxy.json` match theirs, and `report` does not depend on the hash
seed.  `python tests/sweep.py --all` compares every suite probe."""

import os
import subprocess
import sys

from sweep import ROOT, changed_probes, command_probes, load_manifest, probe_id, suite_probes


def test_manifest_lists_every_probe():
    probes = command_probes() + suite_probes()
    assert (len(command_probes()), len(probes)) == (152, 232)
    assert sorted(load_manifest()) == sorted(probe_id(argv) for argv in probes)


def test_command_probes_match_manifest():
    assert changed_probes(command_probes(), load_manifest()) == []


def test_qxy_seed_1_suite_probes_match_manifest():
    probes = [argv for argv in suite_probes()
              if argv[2:6] == ["--seed", "1", "--input", "fixtures/qxy.json"]]
    assert len(probes) == 20
    assert changed_probes(probes, load_manifest()) == []


def test_report_bytes_do_not_depend_on_hash_seed():
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "ttgkit.cli", "report", "--input",
             str(ROOT / "fixtures" / "qxy.json")],
            capture_output=True, env=env, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and outputs[0]
