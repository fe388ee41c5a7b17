"""Byte-identical output of the single-input commands for fixed inputs.

`test_pinned_output.py` and `test_pinned_reports.py` pin `verify-all`,
`audit` and `sample`; these digests pin `pushforward`, `decouple` and the
three (exact, Monte Carlo) check commands, in text and JSON at p = 2, 3, 5.
Every pinned run exits 0; one refused input and the multi-line parse
errors at the end exit 2, with their stderr pinned. A change of any
printed number, verdict or layout moves them, and a deliberate change of
the output re-pins them.
"""

import hashlib

import pytest

from padic_affine.cli import main


def stdout_digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def g_literal(p):
    return (
        f"aff(a = {{B(0;-1): 1/{p}, B(1;-1): {p} | tail 1}}, "
        f"b = {{B(1/{p};0): 1 | tail 0}})"
    )


def f_literal(p):
    return f"{{B(0;-1): 1, B(1/{p};0): -1/2 | tail 0}}"


def argv_for(p, fmt, command):
    argv = ["--json"] if fmt == "json" else []
    argv += ["--p", str(p), command.split()[0]]
    if command == "pushforward":
        argv += ["--g", g_literal(p)]
    elif command == "decouple":
        argv += ["--l1", "{B(0;-1)}", "--l2", "{B(1;2)}"]
    else:
        argv += ["--g", g_literal(p), "--f", f_literal(p)]
        if command.endswith("--mc"):
            argv += ["--mc", "--samples", "1000"]
    return argv


DIGESTS = {
    (2, "text", "pushforward"):
        "66c5872a5f5054be9065854f8aa43482732d35e2615e588c1130c0450e21f325",
    (2, "text", "decouple"):
        "662013179149066ab06b81d5a97d84070acbb0a55973ea65c2b6fa145ae5a85b",
    (2, "text", "laplace"):
        "b872a212dba475e224494f797248754558d92ffac11f4e9f360cd9fba4cf9f36",
    (2, "text", "laplace --mc"):
        "6734d8a492cca9c183cb53711cf44eccd1d8f2f9af0a016c99f8bc17686b15e7",
    (2, "text", "rn"):
        "05d159c877ef2e6d28c22de7ec2660b6fac7ba000c830a60b69bd1124046f0b6",
    (2, "text", "rn --mc"):
        "68c4f2e5cb56db216e157d883fa600f2fa5251fdde7fd0a8fba6a46148b619a7",
    (2, "text", "unitarity"):
        "45e27b1431a65c68493ec2d7813d1176e2f6794acd890dcfb3d8c838fc965976",
    (2, "text", "unitarity --mc"):
        "2e25769b174db4773152a3ab481424c596948da0ff713cea9e8ce6c7dbf4958d",
    (2, "json", "pushforward"):
        "965cd4e1488dce4d26d2bba8a19b78c3b8623a9d7f64287f459d0a4a6a7f002b",
    (2, "json", "decouple"):
        "f60e2897ad8d2876ce227dc6bbe485cb57461df6559438d616bc62ec52fe0a68",
    (2, "json", "laplace"):
        "6755de6d95c21aa7d8f26454b51fec84d7c6756a09077dd55ac0f81444cec8c2",
    (2, "json", "laplace --mc"):
        "e7b827731f507f3d6862bc4016fa11dd1c26568435aa58d8ea35dd7d47b79719",
    (2, "json", "rn"):
        "288755df3822ffef23664d44e8342031c7069fd9bc2e56af5379dc633c39f377",
    (2, "json", "rn --mc"):
        "fab1ff0f836c99de5e140fa5a79c98bf9f06491a1063a22b72e4e75a083c2762",
    (2, "json", "unitarity"):
        "8dd362628aeff58bc930d9c9416738279c993b9f07c304e4e99f2c653c61ea0a",
    (2, "json", "unitarity --mc"):
        "8166bed12773fb6fd7cebad1ca9b623f53dc89fc4b8459fa6df0c57a32c0536f",
    (3, "text", "pushforward"):
        "35bd340a9ff3eab6692490481f961cdf3cc2f3eaa4dd9326db2f85172ee6d0c6",
    (3, "text", "decouple"):
        "851321d388c8b7e56fd76521848ac6eb6ebb6543f57c0d7cf4c3b87ebf86c979",
    (3, "text", "laplace"):
        "b872a212dba475e224494f797248754558d92ffac11f4e9f360cd9fba4cf9f36",
    (3, "text", "laplace --mc"):
        "153eb59d13bd37f893b34fd2e7eeb0fa4239fe685b199438f48f9c04503de01d",
    (3, "text", "rn"):
        "05d159c877ef2e6d28c22de7ec2660b6fac7ba000c830a60b69bd1124046f0b6",
    (3, "text", "rn --mc"):
        "ccb94db8f29c7b9bf4a5aca1a1709fd4fa525c220cfc8b489f288df1eb0256c3",
    (3, "text", "unitarity"):
        "a14ec6d0ed265f8a28b9c80c3b71eaeb662a3c1ef00ce10ba04590cab1549d9e",
    (3, "text", "unitarity --mc"):
        "4319aac9c7a388ff860ad235251ce3c632c9f39a19d0e4202eb8f3da41b51f4d",
    (3, "json", "pushforward"):
        "6f2688f65755ae598b99de62264f3dde1f1cdb90ee0d4863afc586b1251335e1",
    (3, "json", "decouple"):
        "762a5653b8b04ef144d3aeb17fe6b62c471e46cb779067dcde95001aa817f3a5",
    (3, "json", "laplace"):
        "59c38fbd0ace7033ab5a621de4bb3f877b6041ae34b300851a700095e268bd43",
    (3, "json", "laplace --mc"):
        "9296a418ba3d87b98e8243c738a84f13955c7dd49488e4eda0c938ba8d332410",
    (3, "json", "rn"):
        "b3afdbfd43fe28e9096def0a117e749d8a16cbcf63400ada230833facbd11f9c",
    (3, "json", "rn --mc"):
        "ccfee839ac5a2d3e48d0952a79d3637236638d7b20f6101ba2af1be6e09fba6c",
    (3, "json", "unitarity"):
        "6bccefb97c83d7794faef9a1df7439c7280e37fc03045620dcc547de9c3faebb",
    (3, "json", "unitarity --mc"):
        "3c0fcb4baf54bca2d02eff40d970ab72ce97d300df4ba81b8079ac2fcc307d8e",
    (5, "text", "pushforward"):
        "4607c9cd28ea94fd165f31d0b744d6361fa04ffd8cee6fdd9cd5e91b8e1fcf35",
    (5, "text", "decouple"):
        "14fd2b02dc4a390375297a2cbbdf47d9c5803ec3b809805e145455dd70146425",
    (5, "text", "laplace"):
        "b872a212dba475e224494f797248754558d92ffac11f4e9f360cd9fba4cf9f36",
    (5, "text", "laplace --mc"):
        "1336b7956cb0350c619bd25e8324337a2e18d4f62296b672a8817cb3ffdc1c51",
    (5, "text", "rn"):
        "05d159c877ef2e6d28c22de7ec2660b6fac7ba000c830a60b69bd1124046f0b6",
    (5, "text", "rn --mc"):
        "00a96c18e7124437c9556f856385ec53cefd874c782ebff8e4b542a349ff1ded",
    (5, "text", "unitarity"):
        "d531d27dca736f82939841144d02f22f72874d757957bd264c5919ad315d3c8a",
    (5, "text", "unitarity --mc"):
        "8565eff8d67d8f2b0e2822e70c5571cff1ba69cbe0bef24a196ddc25bc42cefc",
    (5, "json", "pushforward"):
        "31215d2fb647641a02030e868add13032799598c121ec62e89091d53adaf7f3c",
    (5, "json", "decouple"):
        "e2f59bfaf57a2da43206c5de5972195e0a40a284906cdaa99fbcecea2ada0c31",
    (5, "json", "laplace"):
        "575f6f4bfe60f551776e92237dcf40af4471ddeace129e5461ffddcef8055613",
    (5, "json", "laplace --mc"):
        "3e6dbc20b13b987d46b2283ff0023bbb3898e8db663d9a0d39370d8f1432005d",
    (5, "json", "rn"):
        "5a51c250deda10a6bf76a3a99a28371bb2ab7706b6b1b11e9c8813e8d57e220a",
    (5, "json", "rn --mc"):
        "03e5f01bda54e8085f8736bc65844f938b8ae3c0b171d5e5e6ce68e515afdfc5",
    (5, "json", "unitarity"):
        "42f3cac00e3255003779cfcf047b29aedf6a8ef0f78c4d05cc82680693a13dfd",
    (5, "json", "unitarity --mc"):
        "9f89edf9aa449cb9890dd167fd9fc21bbee0baa3a37fa661052628b7e321558c",
}


@pytest.mark.parametrize("p, fmt, command", sorted(DIGESTS))
def test_command_digest(capsys, p, fmt, command):
    code, digest = stdout_digest(capsys, argv_for(p, fmt, command))
    assert code == 0
    assert digest == DIGESTS[(p, fmt, command)]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_nonzero_tail_exits_2(capsys, fmt):
    # a refused input prints nothing on stdout
    argv = argv_for(3, fmt, "unitarity --mc")
    argv[argv.index("--f") + 1] = "{B(0;0): 1 | tail 1}"
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: test function must vanish at infinity\n")


# parse errors in multi-line @file literals: stderr and exit code pinned as
# the line-and-column scanner printed them, p = 3
PARSE_ERRORS = {
    "bad character on line 3": (
        "aff(a = {B(0;-1): 1/3,\n"
        "         B(1;-1): 3 | tail 1},\n"
        "    b = {B(1/3;0): 1 ? | tail 0})\n",
        "parse error: unexpected character '?' (line 3, column 22)\n",
    ),
    "missing ) at end of input": (
        "aff(a = {B(0;-1): 1/3, B(1;-1): 3 | tail 1},\n"
        "    b = {B(1/3;0): 1 | tail 0}\n",
        "parse error: expected ')', found 'end of input' (line 3, column 1)\n",
    ),
    "overlapping step literal indented by two spaces": (
        "aff(a = {B(0;-1): 1/3 | tail 1},\n"
        "    b =\n"
        "  {B(0;0): 1, B(0;1): 2 | tail 0})\n",
        "parse error: balls B(0;0) and B(0;1) overlap (line 3, column 3)\n",
    ),
    "\\r\\n file with a - and no digit": (
        "aff(a = {B(0;-1): 1/3 | tail 1},\r\n"
        "    b = {B(1/3;0): - | tail 0})\r\n",
        "parse error: unexpected character '-' (line 2, column 20)\n",
    ),
    "tab before a negative denominator": (
        "aff(a = {B(0;-1): 1/3 | tail 1},\n"
        "\tb = {B(1/-3;0): 1 | tail 0})\n",
        "parse error: expected a positive denominator (line 2, column 11)\n",
    ),
    "trailing input on line 4": (
        "\n"
        "aff(a = {B(0;-1): 1/3 | tail 1},\n"
        "    b = {B(1/3;0): 1 | tail 0})\n"
        "  )\n",
        "parse error: trailing input starting at ')' (line 4, column 3)\n",
    ),
    "vanishing a after a blank line": (
        "\n"
        "  aff(a = {B(0;0): 0 | tail 1},\n"
        "    b = {| tail 0})\n",
        "parse error: a must be nonvanishing (line 2, column 3)\n",
    ),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_in_file(capsys, tmp_path, case):
    literal, stderr = PARSE_ERRORS[case]
    path = tmp_path / "g.txt"
    with open(path, "w", newline="") as fh:  # keep \r\n as written
        fh.write(literal)
    assert main(["--p", "3", "pushforward", "--g", f"@{path}"]) == 2
    assert capsys.readouterr() == ("", stderr)
