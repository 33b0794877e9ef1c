"""Forward-backward style splitting iterations for 0 in (A + B)(x).

All solvers share the same calling convention: a resolvent for the
set-valued part A, called as ``A(z, lam)`` (see the operators module),
a point evaluation for the single-valued part B (which must return an
array of the iterate's shape), seed iterates, and a StopRule.  They
return the final iterate together with an IterationTrace whose rows are
(k, err, lambda, elapsed_s) with err_k = ||x_{k+1} - x_k||.  x0 must be
0-d or 1-d and each history seed (x_minus1, x_minus2) of x0's shape,
else a ValueError names the seed before B is evaluated.  lam=None runs
90% of the method's bound at B's lipschitz_hint, for the reflected ones
1 / (L * stepsize.reflection_scale(delta)), the one rule for delta.

Every solver, and the primal-dual epdtr_solve, is setup code plus a step
function run by one driver, ``_drive``, which owns the trace, the clock,
the divergence test and the stop test.  The three reflected multi-step
methods (frb, gfrb_fixed, gfrb_adaptive) share one runner and one update
kernel, ``_reflected_target``, so that their analytic reductions
(delta = 0, constant step) hold bitwise, not just to rounding.  The same
kernel forms primal_dual.epdtr_step's primal drive at lam = tau and
delta = b, the combination the product-space metric derivation says
the two solvers share.

The step kernels are written to cost few numpy calls per iteration (the
m = 200 problems are bound by per-call overhead) while producing the
same bits as the plain formulas in the docstrings.  They rest on these
identities, which any rewrite must keep:

- ``np.linalg.norm(v)`` of a contiguous 1-d float64 array is
  ``math.sqrt(v.dot(v))``, numpy's own formula, bit for bit (``_norm``).
  A forward value may be a strided view, where the two differ in the
  last bits, so ``_norm`` takes only arrays a step allocated.
- ``a - b`` is exactly ``-(b - a)``, so one difference
  ``D_k = B x_k - B x_{k-1}`` serves as the controller's ``dB``, as the
  ``(1 + delta)`` term and, one iteration later, as the ``delta`` term.
- Scalar factors such as ``lam_p * (1 + delta)`` are formed first and
  then applied to the array, exactly as the formula groups them.
  Reassociating a product changes the last bits.
- ``x - y``, ``s * v`` and ``v + w`` give the same bits written into a
  fresh result or in place (``np.subtract(x, t, out=t)``), and addition
  and multiplication commute exactly.
- ``math.isfinite`` agrees with ``np.isfinite`` on Python floats.

One rule keeps the in-place forms safe: write only into arrays the step
itself has just allocated, and keep no work buffer that lives from one
step to the next and can escape it.  The target handed to a resolvent
can come back as the new iterate (``zero_resolvent`` returns its input),
and a forward operator may return its argument, so neither output is
ever written to.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .stepsize import (int_arg, make_stepsize_state, next_step, real_arg,
                       reflection_scale)

DIVERGENCE_LIMIT = 1e12

# Length of gfrb_adaptive's probe step: with x_minus1=None it seeds
# x_{-1} = x0 - PROBE_STEP * B(x0) / ||B(x0)||.
PROBE_STEP = 1e-6


class StepSizeWarning(UserWarning):
    """A fixed step at or beyond the convergence-theory bound."""


class DivergenceError(RuntimeError):
    """Iteration blew past DIVERGENCE_LIMIT or produced non-finite values.

    Carries the trace recorded up to and including the offending row,
    and the name of the method that diverged.
    """

    def __init__(self, message, trace, method):
        super().__init__(message)
        self.trace = trace
        self.method = method


@dataclass
class StopRule:
    """Stop when ||x_{k+1} - x_k|| <= tol, or after max_iter iterations.

    ValueError naming tol (a finite real >= 0) or max_iter (an integer
    >= 1).
    """

    tol: float = 1e-6
    max_iter: int = 5000

    def __post_init__(self):
        self.tol = real_arg(self.tol, "tol", ">= 0")
        self.max_iter = int_arg(self.max_iter, "max_iter", 1)


class IterationTrace:
    """Per-iteration log: k, displacement err, step lambda, elapsed seconds."""

    def __init__(self):
        self.ks = []
        self.errs = []
        self.lambdas = []
        self.elapsed = []
        self.converged = False

    def append(self, k, err, lam, elapsed_s):
        self.ks.append(int(k))
        self.errs.append(float(err))
        self.lambdas.append(float(lam))
        self.elapsed.append(float(elapsed_s))

    def __len__(self):
        return len(self.ks)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("k,err,lambda,elapsed_s\n")
            for k, err, lam, el in zip(self.ks, self.errs, self.lambdas,
                                       self.elapsed):
                fh.write(f"{k},{err:.17g},{lam:.17g},{el:.17g}\n")


def _seed(v, name="x0", x0=None):
    """A fresh 1-d float copy of the seed iterate ``name``; a scalar becomes
    shape (1,), so the in-place kernels always have an array to write into.

    ValueError naming the seed unless it is 0-d or 1-d and, given the
    seeded x0, has x0's shape (so a history point cannot broadcast).
    """
    x = np.array(v, dtype=float, ndmin=1)
    if x.ndim != 1:
        raise ValueError(f"{name} must be 0-d or 1-d, got shape "
                         f"{np.shape(v)}")
    if x0 is not None and x.shape != x0.shape:
        raise ValueError(f"{name} has shape {np.shape(v)}; it must have "
                         f"x0's shape {x0.shape}")
    return x


def _forward(B, x):
    """B(x) as a float array of x's shape.

    The step kernels write into ``lam * B(x)`` in place, so a forward
    value that would only broadcast against x (a scalar for a length-1
    iterate, say) is rejected here with a ValueError.
    """
    Bx = np.asarray(B(x), dtype=float)
    if Bx.shape != x.shape:
        raise ValueError(f"B(x) has shape {Bx.shape}; it must have the "
                         f"iterate's shape {x.shape}")
    return Bx


def _norm(v):
    """``np.linalg.norm(v)`` for a contiguous 1-d float array, bitwise.

    Only for arrays a step allocated: a value B returned may be a strided
    view, whose norm this does not give bit for bit.
    """
    return math.sqrt(v.dot(v))


def _same_point(u, v):
    """True when u and v hold the same bits (shape and bytes, so -0.0 is
    not 0.0): a deterministic B takes the same value at both."""
    return u.shape == v.shape and u.tobytes() == v.tobytes()


def _seed_forwards(B, x, *seeds):
    """B(x) and B at each seed, evaluated in the order seeds..., x; a seed
    that is the same point as x takes B(x) instead of a second
    evaluation."""
    values = [None if _same_point(s, x) else _forward(B, s) for s in seeds]
    Bx = _forward(B, x)
    return Bx, [Bx if v is None else v for v in values]


# Convergence-theory step bound of each fixed-step method for an
# L-Lipschitz B, given reflection_scale(delta) (2 for frb, which runs at
# delta = 0); _fixed_step fills a null step and warns from it.
_STEP_BOUNDS = {
    "gfrb_fixed": lambda L, scale: 1.0 / (L * scale),
    "frb": lambda L, scale: 1.0 / (L * scale),
    "fbf": lambda L, scale: 1.0 / L,
    "rfb": lambda L, scale: (np.sqrt(2.0) - 1.0) / L,
    "fb": lambda L, scale: 1.0 / L,
}


def _fixed_step(lam, B, method, delta=0.0):
    """The float step ``method`` runs: lam None is 90% of its bound at B's
    lipschitz_hint (ValueError without a positive hint, or when that
    default is not positive and finite); a given lam at or beyond the
    bound warns.  ValueError naming lam (a finite real > 0) or delta."""
    scale = reflection_scale(delta)
    L = getattr(B, "lipschitz_hint", None)
    if lam is None:
        if L is None or L <= 0.0:
            raise ValueError(f"{method} needs an explicit step: the forward "
                             "operator has no usable Lipschitz constant")
        lam = float(0.9 * _STEP_BOUNDS[method](L, scale))
        # L * scale can overflow to inf, which makes the step 0.0.
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"{method}: the default step at L={L:g} and "
                             f"delta={delta!r} is {lam!r}; it must be "
                             "positive and finite")
        return lam
    lam = real_arg(lam, "lam", "> 0")
    if L:
        bound = _STEP_BOUNDS[method](L, scale)
        if lam >= bound:
            warnings.warn(
                f"{method}: step {lam:g} is at or beyond the convergence "
                f"bound {bound:g}; iterating anyway", StepSizeWarning,
                stacklevel=3)
    return lam


def _drive(step, x0, stop, method):
    """The one iteration loop: x <- step(x) until ``stop`` ends it.

    ``step(x)`` returns (x_new, err, lam) with err the displacement from
    x to x_new, err and lam Python floats, and keeps whatever history
    its method needs.  Each row is traced before the divergence test, so
    a DivergenceError carries the offending row.  A finite err from a
    finite x implies a finite x_new (and a non-finite seed gives a
    non-finite first err), so testing err alone also catches non-finite
    iterates.
    """
    stop = stop or StopRule()
    trace = IterationTrace()
    clock = time.perf_counter
    x = x0
    t0 = clock()
    for k in range(stop.max_iter):
        x, err, lam = step(x)
        trace.append(k, err, lam, clock() - t0)
        if not math.isfinite(err) or err > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"{method} diverged at iteration {k} (err={err:g})", trace,
                method)
        if err <= stop.tol:
            trace.converged = True
            break
    return x, trace


def _reflected_target(x, Bx, D, D_p, lam, lam_p, lam_pp, delta):
    """The reflected combination, in a fresh array:

        x - lam*Bx - (lam_p*(1+delta))*D + (lam_pp*delta)*D_p,

    with D = B x_k - B x_{k-1} and D_p = B x_{k-1} - B x_{k-2}, grouped
    exactly so.  It is the resolvent target of every reflected pass, and
    epdtr_step's primal drive (before its -tau*K*y term) at
    lam = lam_p = lam_pp = tau and delta = b.
    """
    target = lam * Bx
    np.subtract(x, target, out=target)
    work = (lam_p * (1.0 + delta)) * D
    target -= work
    np.multiply(lam_pp * delta, D_p, out=work)
    target += work
    return target


def _reflected(A, B, x0, Bx0, B_p, B_pp, delta, stop, method, lam=None,
               state=None, dx=None):
    """Run the three-term reflected recursion from B(x_0) = Bx0,
    B(x_{-1}) = B_p and B(x_{-2}) = B_pp.

    The first pass takes Bx0 as its forward value, so a run of T passes
    evaluates B T - 1 times here, after the caller's seed evaluations.

    Each pass computes, with x = x_k, Bx = B x_k and lam = lam_k,

        x_{k+1} = J_{lam A}(x - lam*Bx - lam_p*(1+delta)*(Bx - B_p)
                            + lam_pp*delta*(B_p - B_pp))

    grouped exactly so (``_reflected_target``).  At delta = 0 the last
    term is an exact zero multiple, which is what makes the frb reduction
    bitwise.

    With a controller ``state`` each step comes from next_step, fed the
    previous displacement (dx, the seed displacement on the first pass)
    and dB = ||B x_{k-1} - B x_k||; without one the step is the constant
    lam.  A non-finite dB is returned as the row's err, so the driver
    reports it as divergence.
    """
    # D_p = B_p - B_pp; each pass's D = Bx - B_p becomes the next D_p.
    # gfrb_adaptive passes B_pp = B_p, so D_p is +0.0 and (lam_pp*delta)*D_p
    # adds the same zero for any lam_pp > 0: lambda_{-1} = lambda_0 is exact.
    D_p = B_p - B_pp
    lam_p = lam_pp = lam if state is None else state.lambda_curr
    pending = Bx0

    def step(x):
        nonlocal B_p, D_p, lam_p, lam_pp, dx, pending
        if pending is None:
            Bx = _forward(B, x)
        else:
            Bx, pending = pending, None
        D = Bx - B_p
        if state is None:
            lam_k = lam_p
        else:
            dB = _norm(D)
            if not math.isfinite(dB):
                return x, dB, lam_p
            lam_k = next_step(state, dx, dB)
        target = _reflected_target(x, Bx, D, D_p, lam_k, lam_p, lam_pp,
                                   delta)
        x_new = np.asarray(A(target, lam_k), dtype=float)
        # ||x_{k+1} - x_k|| is also the controller's next dx, bitwise.
        dx = _norm(x_new - x)
        B_p, D_p = Bx, D
        lam_pp, lam_p = lam_p, lam_k
        return x_new, dx, lam_k

    return _drive(step, x0, stop, method)


def gfrb_adaptive(A, B, x0, x_minus1, delta, lambda0, stop=None):
    """Multi-step reflected splitting with the adaptive step controller.

    Parameters
    ----------
    A : callable
        Resolvent ``A(z, lam)`` of the set-valued part.
    B : callable
        Single-valued part ``B(x)``; no Lipschitz hint is needed.
    x0 : array
        Starting point.
    x_minus1 : array or None
        Seed x_{-1}.  None seeds the probe point

            x_{-1} = x0 - PROBE_STEP * B(x0) / ||B(x0)||,

        so the controller's first update sees a real local estimate
        dB/dx and shrinks a too-large lambda_0 to c1 * dx / dB rather
        than running it as given.  Guards: if ||B(x0)|| is 0 or not
        finite, x_{-1} = x0; a probe that rounds back to x0 gives
        dx = dB = 0, and a constant B gives dB = 0 < dx, and both take
        the growth branch, as the start x_{-1} = x0 does.  The second
        history point x_{-2} is seeded to x_{-1}, which zeroes the
        oldest reflection term on the first pass.
    delta : float
        Reflection mix-in weight; it also sets the controller's box.
    lambda0 : float
        Starting step: the first update starts from it, and it weights
        the first (1 + delta) term.
    stop : StopRule

    Returns
    -------
    (x, trace)

    Each pass evaluates B once and the resolvent once; the controller
    sees dx = ||x_{k-1} - x_k|| and dB = ||B x_{k-1} - B x_k|| and
    either shrinks the step or grows it by its summable schedule.  B(x0)
    is evaluated once, before the first pass, and B(x_{-1}) once unless
    x_{-1} holds x0's exact bits, so T passes cost T + 1 evaluations
    (T when x_{-1} is x0).  make_stepsize_state rejects a bad delta or
    lambda0, naming it, before B is evaluated.
    """
    state = make_stepsize_state(delta, lambda0)
    x = _seed(x0)
    if x_minus1 is None:
        Bx = _forward(B, x)
        size = float(np.linalg.norm(Bx))
        x_p = x - (PROBE_STEP / size) * Bx if 0.0 < size < math.inf else x
        B_p = Bx if _same_point(x_p, x) else _forward(B, x_p)
    else:
        x_p = _seed(x_minus1, "x_minus1", x)
        Bx, (B_p,) = _seed_forwards(B, x, x_p)
    return _reflected(A, B, x, Bx, B_p, B_p, delta, stop, "gfrb_adaptive",
                      state=state, dx=_norm(x_p - x))


def gfrb_fixed(A, B, x0, x_minus1, x_minus2, lam, delta, stop=None):
    """Multi-step reflected splitting with a constant step.

    Needs lam < 1 / (2 L (1 + |delta|)) for an L-Lipschitz B; lam None
    runs 90% of that at B's lipschitz_hint, and a step at or beyond the
    bound raises StepSizeWarning and iterates anyway.
    One B evaluation and one resolvent call per pass, plus one for each
    seed that is not the same point as x0: T passes from distinct seeds
    cost T + 2 evaluations, and from x_minus2 = x_minus1 = x0 cost T.
    """
    lam = _fixed_step(lam, B, "gfrb_fixed", delta)
    x = _seed(x0)
    Bx, (B_pp, B_p) = _seed_forwards(B, x, _seed(x_minus2, "x_minus2", x),
                                     _seed(x_minus1, "x_minus1", x))
    return _reflected(A, B, x, Bx, B_p, B_pp, delta, stop, "gfrb_fixed",
                      lam=lam)


def frb(A, B, x0, x_minus1, lam, stop=None):
    """Reflected splitting with one step of operator memory.

    The delta = 0 case of gfrb_fixed (same kernel, so the reduction is
    bitwise) with one seed evaluation, none when x_minus1 is the same
    point as x0; needs lam < 1 / (2 L), and lam None runs 90% of that.
    """
    lam = _fixed_step(lam, B, "frb")
    x = _seed(x0)
    Bx, (B_p,) = _seed_forwards(B, x, _seed(x_minus1, "x_minus1", x))
    return _reflected(A, B, x, Bx, B_p, B_p, 0.0, stop, "frb", lam=lam)


def fbf(A, B, x0, lam, stop=None):
    """Forward-backward-forward splitting; two B evaluations per pass.

    x_{k+1} = y_k - lam*B(y_k) + lam*B(x_k) with
    y_k = J_{lam A}(x_k - lam*B(x_k)); needs lam < 1/L, and lam None
    runs 90% of that.
    """
    lam = _fixed_step(lam, B, "fbf")

    def step(x):
        lam_Bx = lam * _forward(B, x)
        y = np.asarray(A(x - lam_Bx, lam), dtype=float)
        x_new = lam * _forward(B, y)
        np.subtract(y, x_new, out=x_new)
        x_new += lam_Bx
        return x_new, _norm(x_new - x), lam

    return _drive(step, _seed(x0), stop, "fbf")


def rfb(A, B, x0, x_minus1, lam, stop=None):
    """Reflected forward-backward: forward step at y_k = 2 x_k - x_{k-1}.

    x_{k+1} = J_{lam A}(x_k - lam*B(y_k)); one B evaluation per pass;
    needs lam < (sqrt(2) - 1) / L, and lam None runs 90% of that.
    """
    lam = _fixed_step(lam, B, "rfb")
    x = _seed(x0)
    x_p = _seed(x_minus1, "x_minus1", x)

    def step(x):
        nonlocal x_p
        y = 2.0 * x
        y -= x_p
        target = lam * _forward(B, y)
        np.subtract(x, target, out=target)
        x_new = np.asarray(A(target, lam), dtype=float)
        x_p = x
        return x_new, _norm(x_new - x), lam

    return _drive(step, x, stop, "rfb")


def fb(A, B, x0, lam, stop=None):
    """Plain forward-backward, x_{k+1} = J_{lam A}(x_k - lam*B(x_k));
    convergent only for cocoercive B.

    Kept as the baseline that fails on rotation-like monotone problems
    where the reflected variants succeed.  Its bound is lam < 1/L, as
    for fbf: lam None runs 90% of it, and a step at or past it warns.
    """
    lam = _fixed_step(lam, B, "fb")

    def step(x):
        target = lam * _forward(B, x)
        np.subtract(x, target, out=target)
        x_new = np.asarray(A(target, lam), dtype=float)
        return x_new, _norm(x_new - x), lam

    return _drive(step, _seed(x0), stop, "fb")
