"""Byte-identical report output for a fixed seed: text `verify-all` and
`audit`.

`test_pinned_output.py` pins `verify-all --json` and `sample`; these two
digests add the text formatting of the reports and the audit battery. They
were recorded before the verdict rule moved into `representation`; a change
of any printed verdict, defect, tolerance or note moves them, and a
deliberate change of the output re-pins them.
"""

import hashlib

from padic_affine.cli import main


def stdout_digest(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_verify_all_text_digest(capsys):
    code, digest = stdout_digest(capsys, "--p", "2", "--seed", "42", "verify-all")
    assert code == 0
    assert digest == "77658dcd41210b1671ec0723e6fb79799a473961cd0f9199f0fa0a75c11d1ba9"


def test_audit_json_digest(capsys):
    code, digest = stdout_digest(
        capsys, "--json", "--p", "3", "--seed", "42", "audit", "--trials", "30"
    )
    assert code == 0
    assert digest == "abef1074b28b7ef3cdc54f4dc2ba42cc275cba0b411bb762f72e4b923fffbb25"
