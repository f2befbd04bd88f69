"""Byte-stability guard: the CLI output for every bundled tree is pinned
by its sha256.  A change that alters any of these outputs on purpose must
update the digest here and say why in CHANGES.md."""

import contextlib
import hashlib
import io

import pytest

from adtsched import cli

from conftest import TREES

INVOCATIONS = [
    ("schedule",),
    ("schedule", "--json", "--all-or-variants"),
    ("schedule", "--csv"),
    ("schedule", "--elide"),
    ("variants",),
    ("export", "--dot", "--stage", "normalized"),
    ("export", "--dot", "--stage", "variant:1"),
]

#: tree -> one sha256 of stdout per entry of INVOCATIONS, in that order
DIGESTS = {
    "forestall": [
        "ce084630376d6ac02c1966327c7acfe7e1f364f533b4b1cf6d628db1fddd6514",
        "6353766b5ed2a63e16a192cc069a3a5b67f072d2b07805fedb885488833edc9c",
        "3db289c7de8b93a970072605146396b9244603a73cb7e4babd771d867aa86cc9",
        "4d8ecaef5c4bc0861fb17f1d7b33117d1132748e44899a018e8a463c321b4e8d",
        "05d5198d916c38504e375b12315d140581d3c876b54c73c18965f0115361cc91",
        "a1406d59480b6bf47d0aa0183280604c830aa0c3ff93e51a0e03dc03df36fb3b",
        "3af7e3752b3b9c5f67939e8c85794fbbed6158923f9b877d437a1a9eac7dec66",
    ],
    "gain-admin": [
        "b4d088807353ec2dd4c22bab92039023c04b7c30844affd9b76f3d7b0aaf401c",
        "96eacf69681185a6b536a08f8ed434adf9dae9032a8ac8e3b279b3c3a0058119",
        "e25c0057cecb5b51ca27357c31e6309494716782a2b6d3f99dae9d94f0fbe2e9",
        "4486bba193142cb0f5edbeb23084af98f3b959cdf4bf6a97e2e938a44f44cde3",
        "0dc3def2c7928fa0f549417502646a9fb943d82910e600d5f45a44c7945a7259",
        "aa7d87847f7f4c95c1c6ed3e2fda5e651c76e4fce607bd4571f148d163972aac",
        "c810b939cedf923c8eb87b0c9c0b8d8dc09df182db276527b278c068a82099ad",
    ],
    "interrupted": [
        "f9885a2926cd2812ce0312b1c3a8472efbb6a0114a75d77f6db048a0709e7d53",
        "b8d2d6d9dadaff43ff42fc8f70365181174acc60d7bd958305486bc9f2a3d336",
        "db91a0e131a6ba25999b36e9f754fb45e18444f035f9f23d539042f2a83069ae",
        "f9885a2926cd2812ce0312b1c3a8472efbb6a0114a75d77f6db048a0709e7d53",
        "15991d7ed210b0eda0cfa3b4cca3c396b85ed1c8aea85a3a508f5cbb80ef996e",
        "2f37d9c33dcfa9cdaac2398c0b7d66e1e13e4661099fa9908243f23dc5982490",
        "2f37d9c33dcfa9cdaac2398c0b7d66e1e13e4661099fa9908243f23dc5982490",
    ],
    "iot-dev": [
        "144f0c586da617b0dfa0016604f58bfcae8710e1925fc5801af4db369170b453",
        "974513d55ffe486ae7751c4029e296138ce7997b4272158690e42a2f31a122f4",
        "2e2334da6c75b051b3181833ae5653d2cac38c8313187fbc0468399949bfaccf",
        "987937e6e28d755a75429261fc2854f2d97159a1d21769fc0f2c13f06df3821c",
        "bc3320e2852bd25d634900fdc9435b45e1c4db34c93b855edd3273329ddfe87e",
        "2f214825dbc7678469ace6540b301ca2e5165c0f3f5d043c712affb13e780af6",
        "b0c0f4a0fbc31f3ec4a475113005872b8d69db6ea3ffdfa847404f49e5fe1cbe",
    ],
    "last": [
        "d9dbf64431867d84893e4eb607fc8fb139bb368b8d30e41828c8299e876b87dd",
        "3c0c090795ded87c3ae3bb7121d083192c0ab45be10c2d73722450788faf5ebf",
        "84eed0e02a6e133946fe76ac1bd0ef1ccfe78406a5d41ae0668a64c8e5734c9e",
        "d9dbf64431867d84893e4eb607fc8fb139bb368b8d30e41828c8299e876b87dd",
        "b0bfc9ea82717ad13f5b94c881c983dc2e5156cadd8b417349e757a03f7d9fa5",
        "70793ff5de6771cf28b948b36ceac1214fb2c63f1fe417b7f4be8d1e3755ce7c",
        "70793ff5de6771cf28b948b36ceac1214fb2c63f1fe417b7f4be8d1e3755ce7c",
    ],
    "scaling-example": [
        "9abf680e903dc9408334c52f6f41fff72f5f0e8e855992724296c247bd6205bb",
        "459fd84459d251b5acf792ccaa79a42d1edf8940a53a9541c487f7281693728d",
        "091bca87b753cee35024913e1db04f6948048e2c18bf8496bd30bae70171b709",
        "9abf680e903dc9408334c52f6f41fff72f5f0e8e855992724296c247bd6205bb",
        "ac7c128eb4d0036fbdf61a716dd705276fd9e06ee507f8c319f891109a4b08e1",
        "4b82894bde81b733dffc7fb1bba411dc0f368c166ef14c05518a2e109f19531b",
        "4b82894bde81b733dffc7fb1bba411dc0f368c166ef14c05518a2e109f19531b",
    ],
    "scaling": [
        "de6a589259b9597bcdac3712d03a812c89aa98841817ed3faf3328404c2d0f45",
        "ed40dd75f82273effcefb7628c8c5338606de387c60700aad0d445341e193c08",
        "425bd1b69b253211961a11f1c27dc47b6d75794c7a15f36a5349f41eb03b5654",
        "de6a589259b9597bcdac3712d03a812c89aa98841817ed3faf3328404c2d0f45",
        "a705eacde0b7b94ad7ba3b8b94f402b56272074e9581777f906b338ec3df6130",
        "98d7e3c169f9a574e823773ae08fbcb4f8e1876c37e4ed02feda17ff9455d808",
        "98d7e3c169f9a574e823773ae08fbcb4f8e1876c37e4ed02feda17ff9455d808",
    ],
    "treasure": [
        "58f23b558fad306b0f9567e845e5bda19be9ccfe3094d376a1120e11b0e516b1",
        "957986787e0c5447d0fea85a41dfaaf97ee3b4c2eb507187fe15d46730a42cf9",
        "1fe879aadd67a5d414c32a27fe1a766309e794d954b61cebee24fe596baa315f",
        "e876f9826d79c29a13e13d2af25356f0640fe0f1fc3bbbea898f74b8b5f571b8",
        "2a05c1dd92fd3576f5764d86353ff9d72d8d9ef8feadcbba36bf990486fa452e",
        "72ca02f205e31d1106bf32c3177e829d824a7c2b5c5413ed44605b58b0c5dc99",
        "20f09e630e29f4db1ebe71dd7c22e67a4a4fde8d68ca453d6ebafc1405ed007d",
    ],
}


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_bundled_tree_is_pinned():
    assert sorted(DIGESTS) == sorted(p.stem for p in TREES.glob("*.adt"))


@pytest.mark.parametrize("tree", sorted(DIGESTS))
def test_cli_output_is_byte_stable(tree):
    path = str(TREES / (tree + ".adt"))
    for invocation, expected in zip(INVOCATIONS, DIGESTS[tree]):
        argv = [invocation[0], path] + list(invocation[1:])
        assert _digest(argv) == (0, expected), " ".join(argv)
