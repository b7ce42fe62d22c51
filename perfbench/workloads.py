"""The benchmark's workloads and the outputs pinned for them.

Every input is a whole (bounded) group, so a workload has no random part:
the seed is recorded with each result but changes nothing.  The digests are
sha256 of the exact stdout bytes; a changed byte is a failed run.  The
counts are what the traced run must reproduce exactly.

B4 and A5 ``verify --all-elements`` and F4/H4 enumeration are left out on
purpose: each of their runs takes far more than a run may last, so they
would only ever measure a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    # "verify" runs ``coxlab verify --type GROUP --all-elements``;
    # "enumerate" runs ``child.py enumerate`` (enumerate_elements alone).
    kind: str
    group: str
    max_length: int | None
    elements: int
    stdout_sha256: str
    # stdout of ``coxlab classes --type GROUP``, the set-up run.
    classes_sha256: str
    counts: dict[str, int] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # The north-star command at today's frontier; the report JSON
        # (parity_report_to_json) and the arc law dominate, and it writes
        # about 34 MB, so serialization and memory changes show here.
        Workload(
            name="verify_all_D4",
            kind="verify",
            group="D4",
            max_length=None,
            elements=192,
            stdout_sha256="a12d104d2107aac844f68b0fe638f07c48fd2cc09bd670e422fcec71193e9509",
            classes_sha256="1f845bf1a86636649ac285452b0450e07f8ccc86f8c013856f50fe88c328d6c3",
            counts={
                "core.elements": 192,
                "braid_graph.vertices": 9719,
                "braid_graph.arcs": 42576,
                "verify.cycles": 33049,
                "verify.cycles_2": 21288,
                "inversions.vectors": 9702,
            },
        ),
        # Many small graphs: the arc law (verify, inversions, core.multiply)
        # dominates and the report JSON is small, so a serialization fix
        # should barely move it while interning should move it most.
        Workload(
            name="verify_short_B4",
            kind="verify",
            group="B4",
            max_length=10,
            elements=298,
            stdout_sha256="3ca7f64e97026cdea3778d912f6036ed30e094c463514dd272ab1354c1236aaa",
            classes_sha256="572795dbd22450a0995290a2aea837507363fe0f6fc16790b02e630b5744d4de",
            counts={
                "core.elements": 298,
                "braid_graph.vertices": 7612,
                "braid_graph.arcs": 27238,
                "verify.cycles": 19924,
                "verify.cycles_2": 13619,
                "inversions.vectors": 7585,
            },
        ),
        # The word problem alone (Tits orbit search filling the canonical
        # form cache): no graph, inversion, verify or serialize work, so it
        # is the no-change control for every pipeline change.
        Workload(
            name="enumerate_A5",
            kind="enumerate",
            group="A5",
            max_length=None,
            elements=720,
            # stdout is "720 <sha256 of the canonical words>\n", with
            # words digest aa941ea51c7a36538ea3e35d61ca3423761f776814593c9e21c028171deac093
            stdout_sha256="66cb71404f8c815d770031eb513eea06b32787a2c16e83ffb87ea2384e8d32c9",
            classes_sha256="9538d115295c2afe48930d8a0adedf62babf156f6e656201d31db4bafdc67232",
            counts={"core.elements": 720},
        ),
    )
}
