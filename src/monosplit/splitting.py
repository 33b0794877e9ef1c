"""Forward-backward style splitting iterations for 0 in (A + B)(x).

All solvers share the same calling convention: a resolvent for the
set-valued part A, called as ``A(z, lam)`` (see the operators module),
a point evaluation for the single-valued part B (which must return an
array of the iterate's shape), seed iterates, and a StopRule.  They
return the final iterate together with an IterationTrace whose rows are
(k, err, lambda, elapsed_s) with err_k = ||x_{k+1} - x_k||.

Every solver, and the primal-dual epdtr_solve, is setup code plus a step
function run by one driver, ``_drive``, which owns the trace, the clock,
the divergence test and the stop test.  The three reflected multi-step
methods (frb, gfrb_fixed, gfrb_adaptive) share one runner and one update
kernel so that their analytic reductions (delta = 0, constant step) hold
bitwise, not just to rounding.

The step kernels are written to cost few numpy calls per iteration (the
m = 200 problems are bound by per-call overhead) while producing the
same bits as the plain formulas in the docstrings.  They rest on these
identities, which any rewrite must keep:

- ``np.linalg.norm(v)`` of a 1-d float64 array is
  ``math.sqrt(np.vdot(v, v))``, bit for bit (``_norm``).
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

from .stepsize import next_step, validate_coefficients

DIVERGENCE_LIMIT = 1e12


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
    """Stop when ||x_{k+1} - x_k|| <= tol, or after max_iter iterations."""

    tol: float = 1e-6
    max_iter: int = 5000


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


def _seed(v):
    """A fresh 1-d float copy of a seed iterate; a scalar becomes shape (1,),
    so the in-place kernels always have an array to write into."""
    return np.array(v, dtype=float, ndmin=1)


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
    """``np.linalg.norm(v)`` for a 1-d float array, bitwise, as a float."""
    return math.sqrt(np.vdot(v, v))


# Convergence-theory step bound of each fixed-step method for an
# L-Lipschitz B; _fixed_step fills a null step and warns from it.
_STEP_BOUNDS = {
    "gfrb_fixed": lambda L, delta: 1.0 / (2.0 * L * (1.0 + abs(delta))),
    "frb": lambda L, delta: 1.0 / (2.0 * L),
    "fbf": lambda L, delta: 1.0 / L,
    "rfb": lambda L, delta: (np.sqrt(2.0) - 1.0) / L,
    "fb": lambda L, delta: 1.0 / L,
}


def _fixed_step(lam, B, method, delta=0.0):
    """The float step ``method`` runs: lam None is 90% of its bound at B's
    lipschitz_hint (ValueError without a positive hint); a given lam must
    be positive and finite, and one at or beyond the bound warns."""
    L = getattr(B, "lipschitz_hint", None)
    if lam is None:
        if L is None or L <= 0.0:
            raise ValueError(f"{method} needs an explicit step: the forward "
                             "operator has no usable Lipschitz constant")
        return float(0.9 * _STEP_BOUNDS[method](L, delta))
    if not np.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"step lambda must be positive and finite, got {lam!r}")
    if L:
        bound = _STEP_BOUNDS[method](L, delta)
        if lam >= bound:
            warnings.warn(
                f"{method}: step {lam:g} is at or beyond the convergence "
                f"bound {bound:g}; iterating anyway", StepSizeWarning,
                stacklevel=3)
    return float(lam)


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


def _reflected(A, B, x0, B_p, B_pp, delta, stop, method, lam=None,
               state=None, dx=None):
    """Run the three-term reflected recursion from B(x_{-1}) = B_p and
    B(x_{-2}) = B_pp.

    Each pass computes, with x = x_k, Bx = B x_k and lam = lam_k,

        x_{k+1} = J_{lam A}(x - lam*Bx - lam_p*(1+delta)*(Bx - B_p)
                            + lam_pp*delta*(B_p - B_pp))

    grouped exactly so.  At delta = 0 the last term is an exact zero
    multiple, which is what makes the frb reduction bitwise.

    With a controller ``state`` each step comes from next_step, fed the
    previous displacement (dx, the seed displacement on the first pass)
    and dB = ||B x_{k-1} - B x_k||; without one the step is the constant
    lam.  A non-finite dB is returned as the row's err, so the driver
    reports it as divergence.
    """
    lam_p, lam_pp = (lam, lam) if state is None else \
        (state.lambda_curr, state.lambda_prev)
    reflect = 1.0 + delta
    # D_p = B_p - B_pp; each pass's D = Bx - B_p becomes the next D_p.
    D_p = B_p - B_pp

    def step(x):
        nonlocal B_p, D_p, lam_p, lam_pp, dx
        Bx = _forward(B, x)
        D = Bx - B_p
        if state is None:
            lam_k = lam_p
        else:
            dB = _norm(D)
            if not math.isfinite(dB):
                return x, dB, lam_p
            lam_k = next_step(state, dx, dB)
        target = lam_k * Bx
        np.subtract(x, target, out=target)
        work = (lam_p * reflect) * D
        target -= work
        np.multiply(lam_pp * delta, D_p, out=work)
        target += work
        x_new = np.asarray(A(target, lam_k), dtype=float)
        # ||x_{k+1} - x_k|| is also the controller's next dx, bitwise.
        dx = _norm(x_new - x)
        B_p, D_p = Bx, D
        lam_pp, lam_p = lam_p, lam_k
        return x_new, dx, lam_k

    return _drive(step, x0, stop, method)


def gfrb_adaptive(A, B, x0, x_minus1, delta, state, stop=None):
    """Multi-step reflected splitting with the adaptive step controller.

    Parameters
    ----------
    A : callable
        Resolvent ``A(z, lam)`` of the set-valued part.
    B : callable
        Single-valued part ``B(x)``; no Lipschitz hint is needed.
    x0, x_minus1 : array
        Seed iterates.  The second history point x_{-2} is seeded to
        x_{-1}, which zeroes the oldest reflection term on the first
        pass.
    delta : float
        Reflection mix-in weight.
    state : StepSizeState
        Adaptive controller; its (c1, c2) box is validated against
        delta before iterating.  lambda_curr seeds lambda_0 and
        lambda_prev seeds lambda_{-1}.
    stop : StopRule

    Returns
    -------
    (x, trace)

    Each pass evaluates B once and the resolvent once; the controller
    sees dx = ||x_{k-1} - x_k|| and dB = ||B x_{k-1} - B x_k|| and
    either shrinks the step or grows it by its summable schedule.
    """
    validate_coefficients(state.c1, state.c2, delta, state.epsilon)
    x_p = _seed(x_minus1)
    x = _seed(x0)
    B_p = _forward(B, x_p)
    return _reflected(A, B, x, B_p, B_p, delta, stop, "gfrb_adaptive",
                      state=state, dx=_norm(x_p - x))


def gfrb_fixed(A, B, x0, x_minus1, x_minus2, lam, delta, stop=None):
    """Multi-step reflected splitting with a constant step.

    Needs lam < 1 / (2 L (1 + |delta|)) for an L-Lipschitz B; lam None
    runs 90% of that at B's lipschitz_hint, and a step at or beyond the
    bound raises StepSizeWarning and iterates anyway.
    One B evaluation and one resolvent call per pass after the two seed
    evaluations.
    """
    lam = _fixed_step(lam, B, "gfrb_fixed", delta)
    B_pp = _forward(B, _seed(x_minus2))
    B_p = _forward(B, _seed(x_minus1))
    return _reflected(A, B, _seed(x0), B_p, B_pp, delta, stop, "gfrb_fixed",
                      lam=lam)


def frb(A, B, x0, x_minus1, lam, stop=None):
    """Reflected splitting with one step of operator memory.

    The delta = 0 case of gfrb_fixed (same kernel, so the reduction is
    bitwise) with one seed evaluation; needs lam < 1 / (2 L), and lam
    None runs 90% of that.
    """
    lam = _fixed_step(lam, B, "frb")
    B_p = _forward(B, _seed(x_minus1))
    return _reflected(A, B, _seed(x0), B_p, B_p, 0.0, stop, "frb", lam=lam)


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
    x_p = _seed(x_minus1)

    def step(x):
        nonlocal x_p
        y = 2.0 * x
        y -= x_p
        target = lam * _forward(B, y)
        np.subtract(x, target, out=target)
        x_new = np.asarray(A(target, lam), dtype=float)
        x_p = x
        return x_new, _norm(x_new - x), lam

    return _drive(step, _seed(x0), stop, "rfb")


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
