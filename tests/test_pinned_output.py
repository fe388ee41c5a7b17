"""Byte-identical command line output for a fixed seed.

The digests were recorded from the stdout of the listed commands before the
Poisson draws were prepared as tables; a change that alters how a random
stream is consumed, or any printed number, moves them. A deliberate change
of the output (the Monte Carlo gates of `verify-all`, say) re-pins them.
"""

import hashlib

import pytest

from padic_affine.cli import main


def stdout_digest(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


SAMPLE_DIGESTS = {
    (2, "{B(0;0)}"): "d636bf55ff3895bc299f6bcf80f9f96f1d1a23c732dc933dacbe615c87d083c8",
    (2, "{B(0;2)}"): "408b0793770e7e87efa0825a2960301f2976caed579c0565d7053d7514257142",
    (2, "{B(1/2;-1), B(1;-2)}"): "5a3932451c6dd8bcb5e90534fbc8dcad4161769d68f99b439fea66ff5d9fb453",
    (3, "{B(0;0)}"): "cd1d6d70d201f34e6856b1a26c725bf2c05d20d409e4297a6360f90c9d797982",
    (3, "{B(0;2)}"): "ddc32e619cc523963c4a53d227e03e00a5c75fedcf3d42f1259c6bd6bc15c066",
    (3, "{B(1/3;-1), B(1;-2)}"): "19810ee058567b22b2869398b45cffb3f3366d39026f693c6850ed589017a5d0",
    (5, "{B(0;0)}"): "c607d1564a3c042a2779853d8f8fe5875601ad30d03570569c384e42806074c2",
    (5, "{B(0;2)}"): "7dc29dbda5438810eebd3a841a176e7a2a1483706920263d72cb9d559b3262a1",
    (5, "{B(1/5;-1), B(1;-2)}"): "1dfaa31c8f1393d971263c70e37193d6483b7b8c49016e862bcde11cb868ef45",
}


@pytest.mark.parametrize("p, window", sorted(SAMPLE_DIGESTS))
def test_sample_json_digest(capsys, p, window):
    code, digest = stdout_digest(
        capsys, "--json", "--p", str(p), "sample", "--window", window,
        "--count", "20",
    )
    assert code == 0
    assert digest == SAMPLE_DIGESTS[(p, window)]


def test_verify_all_json_digest(capsys):
    # the exit code is left out: seed 0 trips a Monte Carlo gate whose repair
    # (ROADMAP item 3a) changes this output and re-pins the digest
    _, digest = stdout_digest(
        capsys, "--json", "verify-all", "--p", "3", "--seed", "0"
    )
    assert digest == "f698eb6b60937a3eae484125752bd0ef7cec915da558e5a55fe3e72a515ec6c5"


VERIFY_ALL_DIGESTS = {
    (2, 0): "eb473ecd894438cd38bea8bc8d3fbfe433ba3bc18411059a3dc26e14d11eab57",
    (2, 42): "b820d5a43dc9cf338acb53e4b4ac5ed4a87b879df44c9b043a08d7e0b3162311",
    (3, 42): "e544b64d8c005048a88f228e81a8ef4a052ea032cb61b541016550f442bf4643",
    (5, 0): "01026ed050e7391a852fa0e482cf6d169736a883136338cc4fa9dd974ce77423",
    (5, 42): "b138c57df45fc4caf48258d87f771385663a07b118258fcc2a7f4bfdf5320edd",
}


@pytest.mark.parametrize("p, seed", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_json_digests(capsys, p, seed):
    # the other primes and seeds of the byte-identity rule; the exit code is
    # left out for the reason given above
    _, digest = stdout_digest(
        capsys, "--json", "verify-all", "--p", str(p), "--seed", str(seed)
    )
    assert digest == VERIFY_ALL_DIGESTS[(p, seed)]
