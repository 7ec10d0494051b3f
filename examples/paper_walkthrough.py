"""A numerical walkthrough of Section III of the paper.

Reproduces, step by step and with the paper's exact numbers (H = W = 6,
KH = KW = 3, T2 = T3 = 2), the derivation that runs through Sections
III-A to III-C: the tiling schedule, the upwards-exposed data, footprint
relation (4) on the blue/red tiles, write-access relation (5), and the
extension schedule (6) that tiles the quantisation space.

Run:  python examples/paper_walkthrough.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import (
    TILE_TUPLE,
    construct_tile_shapes,
    exposed_tensors,
    intermediate_groups_of,
    liveout_groups,
    tile_footprint,
)
from repro.pipelines import conv2d
from repro.scheduler import SMARTFUSE, schedule_program

PARAMS = {"H": 6, "W": 6, "KH": 3, "KW": 3}


def banner(title):
    print()
    print(f"--- {title} ---")


def main():
    prog = conv2d.build(PARAMS)
    print("The 2D convolution of Fig. 1(a), H = W = 6, KH = KW = 3.")

    banner("conservative start-up fusion (Section II)")
    sched = schedule_program(prog, SMARTFUSE)
    for g in sched.groups:
        print(f"  {g.name}: {{{', '.join(g.statements)}}}  "
              f"coincident={[int(c) for c in g.coincident]}")
    print("  -> the paper's ({S0}, {S1, S2, S3}): quantisation and reduction spaces")

    L = liveout_groups(prog, sched.groups)[0]
    inters = intermediate_groups_of(prog, L, sched.groups)

    banner("upwards-exposed data of the reduction space (Section III-A)")
    exposed = exposed_tensors(prog, L, sched.groups)
    print(f"  tensors read by {{{', '.join(L.statements)}}} but defined elsewhere: {exposed}")

    banner("footprint relation (4), tile sizes T2 = T3 = 2")
    fp = tile_footprint(prog, L, (2, 2), exposed)
    m = fp[(TILE_TUPLE, "A")]
    print(f"  {m}")

    banner("the paper's blue tile (o0, o1) = (1, 0): origin (2, 0)")
    blue = m.fix_params(PARAMS).image_of_point({f"{L.name}_o0": 2, f"{L.name}_o1": 0})
    box = blue.bounding_box()
    dims = list(blue.space.dims)
    print(f"  memory footprint: {blue.count_points()} elements of A, "
          f"box {dims[0]} in {box[dims[0]]}, {dims[1]} in {box[dims[1]]}")
    print("  paper: { A[h', w'] : 2 <= h' <= 5 and 0 <= w' <= 3 }  (16 points)")

    banner("the red tile (o0, o1) = (1, 1): origin (2, 2), and the overlap")
    red = m.fix_params(PARAMS).image_of_point({f"{L.name}_o0": 2, f"{L.name}_o1": 2})
    inter = blue.intersect(red)
    print(f"  red footprint: {red.count_points()} elements; "
          f"blue ∩ red = {inter.count_points()} elements (the interleaved region)")

    banner("extension schedule (6) = (4) composed with reversed writes (5)")
    mixed = construct_tile_shapes(prog, L, inters, (2, 2))
    ext = mixed.entries[1]
    print(f"  {ext.relation}")
    s0 = ext.relation[(TILE_TUPLE, "S0")].fix_params(PARAMS)
    blue_inst = s0.image_of_point({f"{L.name}_o0": 2, f"{L.name}_o1": 0})
    print(f"  blue tile pulls {blue_inst.count_points()} instances of S0")
    print("  paper: { S0[h, w] : 2 <= h <= 5 and 0 <= w <= 3 }  (16 instances)")
    red_inst = s0.image_of_point({f"{L.name}_o0": 2, f"{L.name}_o1": 2})
    overlap = blue_inst.intersect(red_inst)
    print(f"  tile shapes overlap by {overlap.count_points()} instances — "
          "'arbitrary' (overlapped) tile shapes without rescheduling")


if __name__ == "__main__":
    main()
