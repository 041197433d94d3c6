"""The report bytes of every benchmark check, pinned.

Each check of every benchmark workload at seed 1 (built by
``perfbench/workloads.py``, which this file only imports) runs through
``cli.main`` once with a text report and once with a JSON report.  The exit
code and the sha256 of standard output and standard error must match the
digests below, so a change that means to keep every report as it is can
show that it did.  A change that alters a report on purpose records the new
digests with

    PYTHONPATH=src python tests/test_report_digests.py

and says why they moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import pytest

from guidecheck import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED = 1

# (workload, check, report format) -> (exit code, sha256 of stdout, of stderr)
DIGESTS = {
    ('serve-cex', 'serve4', 'text'):
        (1, 'af154df626889abbaf91bcdba22d9e036dba2fcd2a6580377f247605252b91d2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('serve-cex', 'serve4', 'json'):
        (1, 'ad4790497149239fb3270dbc4427300c6a7b0bf1a2a2712bcc5af94e1629e235', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('serve-cex', 'serve5', 'text'):
        (1, 'af154df626889abbaf91bcdba22d9e036dba2fcd2a6580377f247605252b91d2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('serve-cex', 'serve5', 'json'):
        (1, 'ad4790497149239fb3270dbc4427300c6a7b0bf1a2a2712bcc5af94e1629e235', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('serve-cex', 'serve6', 'text'):
        (1, 'af154df626889abbaf91bcdba22d9e036dba2fcd2a6580377f247605252b91d2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('serve-cex', 'serve6', 'json'):
        (1, 'ad4790497149239fb3270dbc4427300c6a7b0bf1a2a2712bcc5af94e1629e235', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('region-ladder', 'ladder', 'text'):
        (1, 'b172345431d4cdedc31762d9f2324ec15d37c046efac10966ee7093ec15a75cd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('region-ladder', 'ladder', 'json'):
        (1, 'a73f9cccea84013c68a4f3766031bcd54ce6b99e80b87927d468d37e31c338b6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('call-chain', 'chain', 'text'):
        (1, 'a90434fbbde6ab81d26fdf574b1ade41be7ff2de79ad87d5317d99456f881008', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('call-chain', 'chain', 'json'):
        (1, '625e1cb7aaaaad9f3e1f3f3da3a6422653e218929db6e7aec543f31100ed96eb', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch00', 'text'):
        (1, '34ee06da5fd6666db4d724434758045e19208fbe06a2dbde7fc5d48c3e46c8fa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch00', 'json'):
        (1, '709a0d75392091a4643f4b9d05823fead662caf8487cdf89c972cde5c975d0de', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch01', 'text'):
        (1, '3246e59f5d385ade43f993ec3090bcd56781415cc73d08313330d419aa554100', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch01', 'json'):
        (1, '1b9d77ee944a3a32627a90315cda64feeed133c0b83cdf89ac445f0d746b3e5b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch02', 'text'):
        (1, 'ae2c72d7dbde47402ae36e0bd66f5e247137141c8432573a5d94f4e6fbcca8f3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch02', 'json'):
        (1, '42256587d06f72aef3fe446d615069cf6fec6956201f36989dabdc30a420b9b5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch03', 'text'):
        (1, 'ae2c72d7dbde47402ae36e0bd66f5e247137141c8432573a5d94f4e6fbcca8f3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch03', 'json'):
        (1, '42256587d06f72aef3fe446d615069cf6fec6956201f36989dabdc30a420b9b5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch04', 'text'):
        (1, '4e81e956addaa4e34d382cc8bb235f98dddef6ed434a8f1d421bdf517c57d16c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch04', 'json'):
        (1, 'dde0cc8031f52c226a5b4f8d299a4909007b3fcca2abf1c31d0d4dd664654dd5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch05', 'text'):
        (1, '2ec9509856466feea09a70fda35e824823c6fa56a529dfcd4547759821bad8ea', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch05', 'json'):
        (1, '9c01de2d1041f003035fb78ea295c9a2e9becbaf819e44cae045c63ef4009279', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch06', 'text'):
        (1, 'c9ea5921f9e84e5dcdded536dca96ef1c24a5dc0d4c113b50887e27744005392', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch06', 'json'):
        (1, '0098adf62f65957d3004906c7e05062c3ef8e8bb8a85d508e361dd9ad48b9822', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch07', 'text'):
        (1, 'e9b237e3c9ff6b7d02df4aeb47d723ca4a905b53aa5cf258b9a5e42ea60b4493', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('guideline-batch', 'batch07', 'json'):
        (1, '96c53cf6c205d134bf78cae9aa87be7cb374dc98c1c7173434e0b37af70987f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def _workloads():
    """perfbench/workloads.py, loaded once under a name of its own."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests(name: str, directory: str) -> dict:
    """Run every check of one workload in directory, in both formats."""
    workloads = _workloads()
    workload = workloads.build(name, SEED)
    workloads.write(workload, directory)
    out = {}
    cwd = os.getcwd()
    os.chdir(directory)  # file arguments are bare names; keep them so
    try:
        for check in workload.checks:
            assert check.argv[-2:] == ["--report", "json"]
            for fmt in ("text", "json"):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    rc = cli.main(check.argv[:-1] + [fmt])
                out[(name, check.name, fmt)] = (
                    rc, _sha(stdout.getvalue()), _sha(stderr.getvalue()))
    finally:
        os.chdir(cwd)
    return out


@pytest.mark.parametrize("name", ["serve-cex", "region-ladder", "call-chain",
                                  "guideline-batch"])
def test_reports_match_the_recorded_digests(name, tmp_path):
    got = report_digests(name, str(tmp_path))
    expected = {k: v for k, v in DIGESTS.items() if k[0] == name}
    assert got == expected


if __name__ == "__main__":
    import tempfile

    for name in _workloads().WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            for key, value in report_digests(name, tmp).items():
                print(f"    {key!r}:\n        {value!r},")
