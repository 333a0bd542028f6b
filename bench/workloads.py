"""The benchmark's three workloads: seeded inputs, the timed call, and oracles.

Each workload is driven from outside the library.  `tower-p2` and
`cyclic-p3` call `pdescent.cli.main` in-process with stdout captured;
`expansion` calls the public functions of `pdescent.expansion`.  Library
functions are always looked up on their module at call time, so the
traced run's wrappers see every call.

A workload provides:
  setup()          build what every op shares (timed as set-up)
  prepare(k)       untimed: derive op k's input from (seed, k)
  execute(inp)     timed: the library call
  check(inp, out)  untimed: oracles that do not use the code under test;
                   returns None or a failure message
  describe(inp)    JSON-safe record of the input, enough to replay op k
  fingerprint(out) exact text of a result, compared across identical inputs
  levels(out)      per-level shape record
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import string
from fractions import Fraction

import numpy as np

from pdescent import cli, complexes, covers, expansion

GENUS = 2  # every workload uses a genus-2 surface group


def op_rng(seed: int, k: int) -> random.Random:
    """Generator for op k of a run; independent of every other op."""
    return random.Random(f"pdescent-bench:{seed}:{k}")


def surface_variant(rng: random.Random, p: int) -> str:
    """A genus-2 presentation file: [x1,y1][x2,y2] up to relabelling.

    The seed picks four letters, which letter of each handle comes first,
    the order of the handles, a cyclic rotation of the relator, and
    whether it is inverted.  Each handle keeps two generators that are
    adjacent in the `gens` order.  The descent pipeline depends on that
    order: at u = 2, presentations whose handles interleave in it get
    verdict bound-violated at level 2, because u = 2 is below the family
    dimension the paper's estimate would choose.
    """
    letters = sorted(rng.sample(string.ascii_lowercase, 2 * GENUS))
    handles = [letters[2 * i : 2 * i + 2] for i in range(GENUS)]
    for h in handles:
        if rng.random() < 0.5:
            h.reverse()
    if rng.random() < 0.5:
        handles.reverse()
    rel = "".join(x + y + x.upper() + y.upper() for x, y in handles)
    r = rng.randrange(len(rel))
    rel = rel[r:] + rel[:r]
    if rng.random() < 0.5:
        rel = rel[::-1].swapcase()
    return f"p = {p}\ngens = {' '.join(letters)}\nrel = {rel}\n"


def surface_dp(index: int, genus: int) -> int:
    """d_p of a degree-`index` cover of the closed genus-g surface.

    The cover is a closed surface of genus 1 + index (g - 1), so its
    first homology has dimension 2 + index (2g - 2) over every field.
    """
    return 2 + index * (2 * genus - 2)


class CliWorkload:
    """An op is one `pdescent` CLI invocation on a seeded presentation file."""

    p: int

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.genus = GENUS  # the oracle's genus; the self-test corrupts it

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)

    def argv(self, path: str, rng: random.Random) -> list[str]:
        raise NotImplementedError

    def prepare(self, k: int) -> dict:
        rng = op_rng(self.seed, k)
        text = surface_variant(rng, self.p)
        path = os.path.join(self.workdir, f"op{k}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"presentation": text, "argv": self.argv(path, rng)}

    def execute(self, inp: dict):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(inp["argv"])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def describe(self, inp: dict) -> dict:
        argv = list(inp["argv"])
        argv[1] = "<presentation>"
        return {"presentation": inp["presentation"], "argv": ["pdescent"] + argv}

    def check(self, inp: dict, out) -> str | None:
        code, text, err = out
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        return self.check_report(json.loads(text))

    def check_report(self, doc: dict) -> str | None:
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        code, text, err = out
        return f"{code}\n{text}{err}"

    def levels(self, out) -> list[dict]:
        raise NotImplementedError


class TowerP2(CliWorkload):
    """`descend --series rank:2 --u 2 --depth 4` at p = 2."""

    p = 2

    def argv(self, path, rng):
        depth = 2 if self.tiny else 4
        return ["descend", path, "--series", "rank:2", "--u", "2", "--depth", str(depth)]

    def check_report(self, doc):
        if doc["verdict"] != "decay-certified":
            return f"verdict {doc['verdict']}, expected decay-certified"
        depth = 2 if self.tiny else 4
        if len(doc["levels"]) != depth + 1:
            return f"{len(doc['levels'])} levels, expected {depth + 1}"
        for level in doc["levels"]:
            want = surface_dp(level["index"], self.genus)
            if level["d_p"] != want:
                return f"level {level['level']}: d_p {level['d_p']}, expected {want}"
        return None

    def levels(self, out):
        doc = json.loads(out[1])
        return [{"index": lv["index"], "E": lv["edges"], "d_p": lv["d_p"]} for lv in doc["levels"]]


class CyclicP3(CliWorkload):
    """`cyclic --depth 128` at p = 3: Z/N covers for N = 1..128."""

    p = 3

    def argv(self, path, rng):
        while True:
            weights = [rng.randint(-3, 3) for _ in range(2 * GENUS)]
            # the weights define a surjection onto Z exactly when their gcd is 1
            if math.gcd(*weights) == 1:
                break
        depth = 8 if self.tiny else 128
        # `--weights=` form: argparse would read a leading "-1,..." as an option
        weights = "--weights=" + ",".join(map(str, weights))
        return ["cyclic", path, weights, "--depth", str(depth)]

    def check_report(self, doc):
        depth = 8 if self.tiny else 128
        orders = [e[0] for e in doc["entries"]]
        if orders != list(range(1, depth + 1)):
            return f"orders {orders[:3]}..., expected 1..{depth}"
        for order, dp, _ in doc["entries"]:
            want = surface_dp(order, self.genus)
            if dp != want:
                return f"order {order}: d_p {dp}, expected {want}"
        return None

    def levels(self, out):
        doc = json.loads(out[1])
        return [{"index": e[0], "d_p": e[1]} for e in (doc["entries"][0], doc["entries"][-1])]


def laplacian_lambda2(num_vertices: int, edges) -> float:
    """Second-smallest eigenvalue of the combinatorial Laplacian (loops skipped)."""
    lap = np.zeros((num_vertices, num_vertices))
    for u, v in edges:
        if u != v:
            lap[u, u] += 1
            lap[v, v] += 1
            lap[u, v] -= 1
            lap[v, u] -= 1
    return float(np.linalg.eigvalsh(lap)[1])


class Expansion:
    """One heuristic Cheeger constant and ~12 upper relative sizes on a V=256 cover.

    Set-up builds the rank-2 tower of the genus-2 surface to depth 4 (the
    first two echelon classes at each level).  Relative-size inputs are
    pullbacks of level-3 classes outside the covering span, which stay
    nontrivial on the cover, plus a seeded random coboundary.
    """

    p = 2

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.depth = 2 if tiny else 4
        self.relsize_inputs = 2 if tiny else 12

    def setup(self):
        rng = op_rng(self.seed, -1)
        pres, p = complexes.parse_presentation(surface_variant(rng, self.p))
        K = complexes.build_presentation_complex(pres)
        self.shapes = [{"index": 1, "V": K.num_vertices, "E": K.num_edges, "F": K.num_faces}]
        for _ in range(self.depth):
            basis = complexes.h1_cocycle_basis(K, p)
            cov = covers.build_abelian_p_cover(K, basis[:2], p)
            K = cov.total
            self.shapes.append(
                {"index": K.num_vertices, "V": K.num_vertices, "E": K.num_edges, "F": K.num_faces}
            )
        self.basis, self.cover = basis, cov
        self.graph = expansion.SkeletonGraph.from_complex(K)
        self.lambda2 = laplacian_lambda2(K.num_vertices, K.edges)
        self.init = np.array([u for u, _ in K.edges])
        self.term = np.array([v for _, v in K.edges])

    def prepare(self, k: int) -> dict:
        rng = op_rng(self.seed, k)
        picks = [
            (rng.randrange(2, len(self.basis)), rng.randrange(2**32))
            for _ in range(self.relsize_inputs)
        ]
        cochains = []
        for class_index, cob_seed in picks:
            pulled = self.cover.pullback(self.basis[class_index]).values
            f = np.random.default_rng(cob_seed).integers(0, self.p, self.cover.total.num_vertices)
            values = (pulled + f[self.term] - f[self.init]) % self.p
            cochains.append(complexes.Cochain(self.cover.total, self.p, values))
        return {"cheeger_seed": rng.randrange(2**32), "picks": picks, "cochains": cochains}

    def execute(self, inp: dict):
        h = expansion.cheeger_constant(self.graph, mode="heuristic", seed=inp["cheeger_seed"])
        K = self.cover.total
        sizes = [expansion.relative_size(K, c, mode="upper") for c in inp["cochains"]]
        return h, sizes

    def describe(self, inp: dict) -> dict:
        return {
            "cheeger_seed": inp["cheeger_seed"],
            "relsize": [
                {"base_class_index": ci, "coboundary_seed": cs} for ci, cs in inp["picks"]
            ],
        }

    def check(self, inp: dict, out) -> str | None:
        h, sizes = out
        # Cheeger inequality: h(G) >= lambda_2 / 2, and a sweep only overestimates h
        if float(h) < self.lambda2 / 2 - 1e-9:
            return f"Cheeger value {h} below lambda_2/2 = {self.lambda2 / 2:.6f}"
        edges = self.cover.total.num_edges
        for c, r in zip(inp["cochains"], sizes):
            ceiling = Fraction(int(np.count_nonzero(c.values)), edges)
            if not 0 < r <= ceiling:
                return f"relative size {r} outside (0, {ceiling}]"
        return None

    def fingerprint(self, out) -> str:
        h, sizes = out
        return " ".join(str(x) for x in [h, *sizes])

    def levels(self, out):
        return self.shapes


WORKLOADS = {"tower-p2": TowerP2, "cyclic-p3": CyclicP3, "expansion": Expansion}

