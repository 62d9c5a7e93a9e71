"""The benchmark's workloads: the genkl CLI commands each one runs.

Every input is fixed; the seed only picks which output rows the checks in
checks.py compare against slow independent routes.  Each command runs in
its own fresh process, so every one starts with cold caches, as it does
for a user at a shell.
"""

PETERSSON_KAPPAS = (12, 16, 18, 20, 22, 26)
PETERSSON_MMAX = 10
# large enough that the Kloosterman table, not the import, is most of the time
PETERSSON_CMAX = 2000

DEGENERATION_PRIMES = (3, 5)

# One `klsum --grid units` table per family.  Each table has one character,
# and no two tables share an extension, so every (E, k, M) triple reaches
# dihedral_bucket once.  Classical and Nelson go through h_local point by
# point (one kloosterman_many call per row); the others read cached vectors.
KLSUM_TABLES = [
    dict(family="classical", p=3, c=2, k=(1, 8)),
    dict(family="nelson", p=3, c=3, k=(1, 7)),
    dict(family="ps", p=5, chi_conductor=2, k=(1, 5)),
    dict(family="supercuspidal", p=3, ext="unramified", cxi=1, k=(1, 8)),
    dict(family="supercuspidal", p=2, ext="unramified", cxi=5, k=(1, 11)),
    dict(family="nbhd", p=3, ext="ramified", cxi=2, n_radius=1, k=(1, 7)),
]

# The klsum workload's last table, a `mellin` transform table: its closed
# form goes through composed_conductor, the Fraction phases of
# ExtCharacter.unit_phase and DirichletCharacter, and one
# SupercuspidalNbhd.index() call per character.
MELLIN_NBHD = dict(p=5, ext="unramified", cxi=2, n_radius=1, k=(1, 3))


def family_flags(spec: dict) -> list[str]:
    """The CLI's family flags for a table spec."""
    out = []
    for key in ("family", "p", "c", "chi_conductor", "ext", "cxi", "n_radius"):
        if key in spec:
            out += ["--" + key.replace("_", "-"), str(spec[key])]
    return out


def _k_flag(spec: dict) -> list[str]:
    lo, hi = spec["k"]
    return ["--k", f"{lo}..{hi}"]


COMMANDS = {
    "petersson": [
        ["petersson-verify", "--kappa", ",".join(map(str, PETERSSON_KAPPAS)),
         "--mmax", str(PETERSSON_MMAX), "--cmax", str(PETERSSON_CMAX)],
    ],
    "degeneration": [
        ["identities", "--suite", "degeneration", "--p", str(p)] for p in DEGENERATION_PRIMES
    ],
    "klsum": [
        ["klsum", *family_flags(spec), *_k_flag(spec), "--grid", "units"] for spec in KLSUM_TABLES
    ] + [
        ["mellin", *family_flags(dict(family="nbhd", **MELLIN_NBHD)), *_k_flag(MELLIN_NBHD)],
    ],
}
