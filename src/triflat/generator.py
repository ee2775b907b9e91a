"""Random instances of the target triangular normal form.

The generated systems serve as ground-truth positives: the decision
procedure must accept them and recover the generating block dimensions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from .expr import Rat, Sym, ZERO, add, mul
from .systems import AffineSystem, vector_field


@dataclass(frozen=True)
class TemplateInstance:
    system: AffineSystem
    dims: Tuple[int, int, int, int]  # chain lengths (l1, l2), core size, depth
    long_input_index: int  # input attached to the longer terminal chain

    @property
    def case(self):
        l1, l2, _n2, _n3 = self.dims
        if min(l1, l2) >= 1:
            return "TwoChains"
        if max(l1, l2) >= 1:
            return "OneChain"
        return "NoX1"


def _random_poly(rng: random.Random, vars_, max_terms=2):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = Rat(rng.choice([-2, -1, 1, 2]))
        shape = rng.random()
        v = Sym(rng.choice(vars_))
        if shape < 0.5:
            terms.append(mul(coeff, v))
        elif shape < 0.8 and len(vars_) >= 2:
            w = Sym(rng.choice(vars_))
            terms.append(mul(coeff, v, w))
        else:
            terms.append(mul(coeff, v, v))
    return add(*terms) if terms else ZERO


def triangular_template(
    l1: int, l2: int, n2: int, n3: int, seed: int = 0
) -> TemplateInstance:
    """Instantiate the normal form with random triangular couplings.

    l1, l2 >= 0 are the terminal chain lengths, n2 >= 3 the core block size,
    n3 >= 1 the depth of the input-side chains (lengths n3 and n3 - 1).  The
    combination n2 == 3 with l1 == l2 == 0 is rejected: such systems are
    static feedback linearizable and never reach the non-involutive step.
    """
    if n2 < 3 or n3 < 1 or l1 < 0 or l2 < 0:
        raise ValueError("dimension bounds: n2 >= 3, n3 >= 1, chain lengths >= 0")
    if n2 == 3 and l1 == 0 and l2 == 0:
        raise ValueError("n2 == 3 with no terminal chains is feedback linearizable")
    rng = random.Random(seed)

    chain1 = [f"w1_{j}" for j in range(1, l1 + 1)]
    chain2 = [f"w2_{j}" for j in range(1, l2 + 1)]
    core = [f"y{i}" for i in range(1, n2 + 1)]
    long3 = [f"z1_{j}" for j in range(1, n3 + 1)]
    short3 = [f"z2_{j}" for j in range(1, n3)]
    frame = tuple(chain1 + chain2 + core + long3 + short3)

    w_is_input = n3 == 1
    w_sym = Sym("u2") if w_is_input else Sym(short3[0])

    x1_vars = chain1 + chain2
    drift_parts = {}
    b2_parts = {}

    for chain, feed in ((chain1, core[0]), (chain2, core[1])):
        for j, s in enumerate(chain):
            drift_parts[s] = Sym(chain[j + 1]) if j + 1 < len(chain) else Sym(feed)

    couplings = {}
    # core block: dy1 = w, dy_i = y_{i+1} w + a_i, dy_n2 = z1_1 + g w
    if w_is_input:
        b2_parts[core[0]] = add(1)
    else:
        drift_parts[core[0]] = w_sym
    for i in range(2, n2):
        a_i = _random_poly(rng, x1_vars + core[: i + 1]) if rng.random() < 0.8 else ZERO
        couplings[f"a{i}"] = a_i
        if w_is_input:
            b2_parts[core[i - 1]] = Sym(core[i])
            drift_parts[core[i - 1]] = a_i
        else:
            drift_parts[core[i - 1]] = add(mul(Sym(core[i]), w_sym), a_i)
    g = _random_poly(rng, x1_vars + core) if rng.random() < 0.7 else ZERO
    couplings["g"] = g
    if w_is_input:
        b2_parts[core[-1]] = g
        drift_parts[core[-1]] = Sym(long3[0])
    else:
        drift_parts[core[-1]] = add(Sym(long3[0]), mul(g, w_sym))

    b1_parts = {long3[-1]: add(1)}
    for j, s in enumerate(long3[:-1]):
        drift_parts[s] = Sym(long3[j + 1])
    for j, s in enumerate(short3):
        if j + 1 < len(short3):
            drift_parts[s] = Sym(short3[j + 1])
    if short3:
        b2_parts = {short3[-1]: add(1)}

    system = AffineSystem(
        frame=frame,
        drift=vector_field(frame, drift_parts),
        b1=vector_field(frame, b1_parts),
        b2=vector_field(frame, b2_parts),
        input_syms=("u1", "u2"),
        name=f"template(l1={l1},l2={l2},n2={n2},n3={n3},seed={seed})",
    )
    return TemplateInstance(system=system, dims=(l1, l2, n2, n3), long_input_index=0)
