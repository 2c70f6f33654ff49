"""The order of ground programs, pinned by digest.

``tests/test_grounder_seminaive.py`` compares the two grounding modes
as rule *sets*, so a grounder that emits the same rules in another
order passes it.  Here each case hashes everything order-sensitive the
grounder produces — the ground rules in emission order, the possible
atoms, the facts, the ``#show``/``#external`` signatures and the
instantiation count — once per grounding mode, and compares the pair
against digests recorded from a known-good grounder.  A digest that
moves means the ground program changed: re-record only for a change
that is meant to reorder or re-count the grounding, and say so.

The digests do not depend on ``PYTHONHASHSEED`` (the grounder's output
order is fixed by the program, not by set iteration).
"""

import hashlib

import pytest

from repro.asp.control import Control
from repro.synthesis.encoding import encode
from repro.workloads.curated import CURATED_NAMES, curated

OPTION_SETS = {
    "default": {},
    "serialize": {"serialize": True},
    "link_contention": {"link_contention": True},
    "both": {"serialize": True, "link_contention": True},
    "fixed": {"routing": "fixed"},
}

#: A signature defined both by facts and by a choice rule.
FACTS_AND_CHOICE = """
p(1). p(2).
q(a).
{ p(3); p(1) } :- q(a).
r(X) :- p(X), not s(X).
s(2).
p(4).
q(b).
"""

#: A fact written twice, around other facts of its signature.
DUPLICATED_FACT = """
a(1). a(2). b(1).
a(1).
c(X, Y) :- a(X), b(Y), X != Y.
c(X, X) :- a(X).
a(3).
"""

HAND_WRITTEN = {
    "facts_and_choice": FACTS_AND_CHOICE,
    "duplicated_fact": DUPLICATED_FACT,
}


def program_digest(program) -> str:
    """One hex digest of a ground program's order-sensitive content."""
    digest = hashlib.sha256()
    for rule in program.rules:
        digest.update(repr(rule).encode())
        digest.update(str(rule).encode())
        digest.update(b"\n")
    for title, atoms in (("possible", program.possible), ("facts", program.facts)):
        digest.update(f"#{title}\n".encode())
        for atom in sorted(atoms):
            digest.update(str(atom).encode())
            digest.update(b"\n")
    shows = None if program.shows is None else sorted(program.shows)
    digest.update(f"#shows {shows}\n".encode())
    digest.update(f"#externals {sorted(program.externals)}\n".encode())
    digest.update(f"#instantiations {program.grounding.instantiations}\n".encode())
    return digest.hexdigest()[:16]


def ground(load, mode: str):
    control = Control()
    load(control)
    return control.instantiate(cache=False, mode=mode)


def case_digests(load) -> tuple:
    """(semi-naive digest, naive digest) of one program."""
    return tuple(
        program_digest(ground(load, mode)) for mode in ("seminaive", "naive")
    )


def curated_loader(name: str, options: str, symmetry: str):
    instance = encode(curated(name), symmetry=symmetry, **OPTION_SETS[options])
    return instance.add_to


def text_loader(text: str):
    return lambda control: control.add(text)


CURATED_DIGESTS = {
    "consumer_jpeg/both/auto": ("4069426effa28427", "3287bac4b48a7733"),
    "consumer_jpeg/both/off": ("4069426effa28427", "3287bac4b48a7733"),
    "consumer_jpeg/default/auto": ("1975377c6244cc8d", "d28c0583811f903b"),
    "consumer_jpeg/default/off": ("1975377c6244cc8d", "d28c0583811f903b"),
    "consumer_jpeg/fixed/auto": ("6f85f2ee985efb48", "baf3254c613a3c45"),
    "consumer_jpeg/fixed/off": ("6f85f2ee985efb48", "baf3254c613a3c45"),
    "consumer_jpeg/link_contention/auto": ("dd96fca3fd26c147", "f9fd4976a77b3ae1"),
    "consumer_jpeg/link_contention/off": ("dd96fca3fd26c147", "f9fd4976a77b3ae1"),
    "consumer_jpeg/serialize/auto": ("4f8672242e5cd3de", "914f61049dd8f99c"),
    "consumer_jpeg/serialize/off": ("4f8672242e5cd3de", "914f61049dd8f99c"),
    "telecom_modem/both/auto": ("3eccc1a20d5ef88a", "8676e50865734f28"),
    "telecom_modem/both/off": ("3eccc1a20d5ef88a", "8676e50865734f28"),
    "telecom_modem/default/auto": ("d825929ced1ccdec", "8fc9e99b8952a495"),
    "telecom_modem/default/off": ("d825929ced1ccdec", "8fc9e99b8952a495"),
    "telecom_modem/fixed/auto": ("44cbab04cac914dc", "c555b3f928604e11"),
    "telecom_modem/fixed/off": ("44cbab04cac914dc", "c555b3f928604e11"),
    "telecom_modem/link_contention/auto": ("6a37b540bc23a719", "f05cf1e2563da58a"),
    "telecom_modem/link_contention/off": ("6a37b540bc23a719", "f05cf1e2563da58a"),
    "telecom_modem/serialize/auto": ("7d0aaff3fb2016b8", "8e15d055c8024dda"),
    "telecom_modem/serialize/off": ("7d0aaff3fb2016b8", "8e15d055c8024dda"),
    "auto_engine/both/auto": ("ab4755ae0ea80abc", "56ecfab3fbfa49fe"),
    "auto_engine/both/off": ("ab4755ae0ea80abc", "56ecfab3fbfa49fe"),
    "auto_engine/default/auto": ("2df568f961e8b176", "8e6f7311a8f15c2e"),
    "auto_engine/default/off": ("2df568f961e8b176", "8e6f7311a8f15c2e"),
    "auto_engine/fixed/auto": ("2c9133ad6ae45ab6", "d0ed3fa3a0b9b046"),
    "auto_engine/fixed/off": ("2c9133ad6ae45ab6", "d0ed3fa3a0b9b046"),
    "auto_engine/link_contention/auto": ("af3262996b0ed22e", "8fdec78cdd58028f"),
    "auto_engine/link_contention/off": ("af3262996b0ed22e", "8fdec78cdd58028f"),
    "auto_engine/serialize/auto": ("d04a50eb6250eec7", "1551f9cad5c735d6"),
    "auto_engine/serialize/off": ("d04a50eb6250eec7", "1551f9cad5c735d6"),
    "network_firewall/both/auto": ("396fae12582940ac", "180ef716781234fb"),
    "network_firewall/both/off": ("396fae12582940ac", "180ef716781234fb"),
    "network_firewall/default/auto": ("619f77f300bbfa92", "94cee880a833941f"),
    "network_firewall/default/off": ("619f77f300bbfa92", "94cee880a833941f"),
    "network_firewall/fixed/auto": ("55c56b92c8b11e13", "010d7b76ffe549a3"),
    "network_firewall/fixed/off": ("55c56b92c8b11e13", "010d7b76ffe549a3"),
    "network_firewall/link_contention/auto": ("9daa9a2c059aa041", "f9e5d183ad4642ce"),
    "network_firewall/link_contention/off": ("9daa9a2c059aa041", "f9e5d183ad4642ce"),
    "network_firewall/serialize/auto": ("7d2bb1cdf23462a6", "9f457ba0e502e8f6"),
    "network_firewall/serialize/off": ("7d2bb1cdf23462a6", "9f457ba0e502e8f6"),
    "mesh_symmetric/both/auto": ("f5c3ba9a2d58ec8e", "7789e19bd85bd52b"),
    "mesh_symmetric/both/off": ("7b3daa924a412a84", "e377718e91f3f717"),
    "mesh_symmetric/default/auto": ("a268a6121927b9b0", "b7ee25f412e08e47"),
    "mesh_symmetric/default/off": ("99909086616ab5f4", "9bfe9aa2130b8cc1"),
    "mesh_symmetric/fixed/auto": ("68ec42ca4364ea82", "e724730325608e81"),
    "mesh_symmetric/fixed/off": ("68ec42ca4364ea82", "e724730325608e81"),
    "mesh_symmetric/link_contention/auto": ("0c4ba1c3a665c9a4", "3b9c543ef723c812"),
    "mesh_symmetric/link_contention/off": ("fcad530e0b3ca539", "b78b0dc479ec6d90"),
    "mesh_symmetric/serialize/auto": ("d2f957a6b71e2d67", "9f714289416e777c"),
    "mesh_symmetric/serialize/off": ("2d360b5359915a05", "0005ff0708b6edb1"),
}

HAND_WRITTEN_DIGESTS = {
    "duplicated_fact": ("9d37348fac1c93b4", "e2f41659c86ecab7"),
    "facts_and_choice": ("27825215c5f7c744", "5f81db7f92cb56e8"),
}


@pytest.mark.parametrize("symmetry", ["auto", "off"])
@pytest.mark.parametrize("options", sorted(OPTION_SETS))
@pytest.mark.parametrize("name", CURATED_NAMES)
def test_curated_ground_programs_keep_their_order(name, options, symmetry):
    got = case_digests(curated_loader(name, options, symmetry))
    assert got == CURATED_DIGESTS[f"{name}/{options}/{symmetry}"]


@pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
def test_hand_written_ground_programs_keep_their_order(case):
    got = case_digests(text_loader(HAND_WRITTEN[case]))
    assert got == HAND_WRITTEN_DIGESTS[case]
