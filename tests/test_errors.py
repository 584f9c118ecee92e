"""Out-of-domain input raises UnsupportedParameters, also a ValueError."""

import functools
import re

import mpmath as mp
import pytest

from dlaguerre import (PrecisionCtx, PVParams, UnsupportedParameters,
                       WeightParams, build_moment_table, dN_by_quadrature,
                       delta_by_quadrature, evolve, finite_difference,
                       from_hamiltonian,
                       gram_schmidt_recurrence, hamilton_rhs,
                       hamiltonian_eval, inner_product, ladder_integrals,
                       ode_rhs, pv_residual, rr_rhs, table_for,
                       theta_kappa_from_recurrence, to_hamiltonian)
from dlaguerre import hankel, oracle, painleve, semiclassical
from dlaguerre.hankel import (cauchy_sweep, cauchy_transform, dN_kernel,
                              epsilon_derivative_eval, epsilon_eval,
                              hankel_determinant, monic_values,
                              orthopoly_eval, recurrence_coefficients,
                              stieltjes_eval)
from dlaguerre.moments import (MomentTable, moment_closed_form, moment_jets,
                               moment_series)
from dlaguerre.painleve import (ab_flow_check, aux_pair_series,
                                compatibility_residual, deformation_residual,
                                series_init)
from dlaguerre.semiclassical import (AuxPair, ladder_ab_at,
                                     ladder_ab_by_quadrature)

PARAMS = WeightParams(2, 2, "0.5", "0.3")
with mp.workprec(64):
    GRID = mp.linspace(mp.mpf("0.1"), mp.mpf("0.9"), 9)


@functools.lru_cache(maxsize=None)
def _tables():
    return table_for(PARAMS, 2, PrecisionCtx())


REFUSALS = {
    "hankel_determinant N < 0": lambda: hankel_determinant(_tables()[0], -1),
    "hankel_determinant past k_max": (
        lambda: hankel_determinant(_tables()[0], 9)),
    "recurrence_coefficients past k_max": (
        lambda: recurrence_coefficients(_tables()[0], 9)),
    "orthopoly_eval past n_max": lambda: orthopoly_eval(_tables()[1], 9, -1),
    "dN_kernel past n_max": lambda: dN_kernel(_tables()[1], 9, -1, -2),
    "MomentTable length": lambda: MomentTable(PARAMS, 2, (1, 2)),
    "MomentTable source": lambda: MomentTable(PARAMS, 0, (1,), "guess"),
    "MomentTable finite": lambda: MomentTable(PARAMS, 0, (float("inf"),)),
    "build_moment_table source": (
        lambda: build_moment_table(PARAMS, 2, PrecisionCtx(), "guess")),
    "closed form size": (
        lambda: moment_closed_form(0, WeightParams(0, 2049, 0, 0),
                                   PrecisionCtx())),
    "PVParams.make convention": lambda: PVParams.make(1, 2, 2, "prop99"),
    "PVParams convention": (
        lambda: PVParams((0, 0, 0, 0), (0, 0, 0, 0), 1, 2, 2, "prop99")),
    "from_hamiltonian convention": (
        lambda: from_hamiltonian("2", "0.1", "0.3", 1, PARAMS, "prop99")),
    "Trajectory.eval range": (
        lambda: evolve(1, "1e-3", "2e-3", PARAMS).eval("0.5")),
    "PrecisionCtx bits": lambda: PrecisionCtx(32),
    "PrecisionCtx tol": lambda: PrecisionCtx(256, "-1e-30"),
    "AuxPair provenance": lambda: AuxPair(1, 0, 0, 0, 0, 0, "guess"),
    "theta_kappa_from_recurrence past n_max": (
        lambda: theta_kappa_from_recurrence(_tables()[1], 9)),
    "pv_residual short q": lambda: pv_residual(GRID, [2] * 8, (0, 0, 0, 0)),
    "pv_residual long q": lambda: pv_residual(GRID, [2] * 10, (0, 0, 0, 0)),
    # a bare ValueError (unpacking three alphas)
    "pv_residual three alphas": lambda: pv_residual(GRID, [2] * 9, (0, 0, 0)),
    # complex data took a plain mpc loop that no caller reached
    "pv_residual complex q": (
        lambda: pv_residual(GRID, [2] * 8 + [mp.mpc(2, 1)], (0, 0, 0, 0))),
    # nan passed the locus guard, whose < tests are false on nan, and
    # returned nan
    "pv_residual nan q": (
        lambda: pv_residual(GRID, [2] * 8 + [mp.nan], (0, 0, 0, 0))),
    "pv_residual inf alpha": (
        lambda: pv_residual(GRID, [2] * 9, (0, mp.inf, 0, 0))),
    # returned QuadResult(nan, nan) and (-inf, nan)
    "dN_by_quadrature nan y": (
        lambda: dN_by_quadrature(PARAMS, 1, mp.nan, 2, PrecisionCtx())),
    "dN_by_quadrature inf y": (
        lambda: dN_by_quadrature(PARAMS, 1, 2, mp.inf, PrecisionCtx())),
    # a bare ValueError: the nodes // 2 rung is empty
    "delta_by_quadrature one node": (
        lambda: delta_by_quadrature(PARAMS, 1, PrecisionCtx(), nodes=1)),
    "dN_by_quadrature one node": (
        lambda: dN_by_quadrature(PARAMS, 1, 2, 3, PrecisionCtx(), nodes=1)),
    # an AttributeError ("'float' object has no attribute 'bit_length'")
    # or a TypeError from the rule builder
    "delta_by_quadrature float nodes": (
        lambda: delta_by_quadrature(PARAMS, 1, PrecisionCtx(), nodes=2.5)),
    "delta_by_quadrature str nodes": (
        lambda: delta_by_quadrature(PARAMS, 1, PrecisionCtx(), nodes="20")),
    "dN_by_quadrature float nodes": (
        lambda: dN_by_quadrature(PARAMS, 1, 2, 3, PrecisionCtx(),
                                 nodes=20.0)),
    "dN_by_quadrature str nodes": (
        lambda: dN_by_quadrature(PARAMS, 1, 2, 3, PrecisionCtx(),
                                 nodes="20")),
    # a bare ZeroDivisionError
    "finite_difference h = 0": lambda: finite_difference(mp.exp, 1, 0),
    # returned {'a': [0], 'b': [], ...}
    "gram_schmidt_recurrence n_max < 0": (
        lambda: gram_schmidt_recurrence(PARAMS, -1, PrecisionCtx())),
}

# a degree outside what the table serves, refused by name before any
# quadrature: 0..n_max + 1 where only P_n is read, 0..n_max where gamma_n
# or h_n is (the tables hold n_max = 2)
QPREC = PrecisionCtx(192, "1e-28")
DEGREE_REFUSALS = {
    "theta_kappa_from_recurrence n < 0": (
        lambda: theta_kappa_from_recurrence(_tables()[1], -1)),
    "dN_kernel N < 0": lambda: dN_kernel(_tables()[1], -1, 1, 2),
    "orthopoly_eval n < 0": lambda: orthopoly_eval(_tables()[1], -1, -1),
    "inner_product n < 0": (
        lambda: inner_product((-1, 0), *_tables()[::-1], QPREC)),
    "inner_product past n_max": (
        lambda: inner_product((0, 3), *_tables()[::-1], QPREC)),
    "cauchy_sweep past n_max + 1": (
        lambda: cauchy_sweep(_tables()[1], 4, -2, QPREC)),
    "cauchy_sweep n < 0": lambda: cauchy_sweep(_tables()[1], -1, -2, QPREC),
    "cauchy_transform past n_max + 1": (
        lambda: cauchy_transform(_tables()[1], 4, -2, QPREC)),
    "cauchy_transform n < 0": (
        lambda: cauchy_transform(_tables()[1], -1, -2, QPREC)),
    "epsilon_eval past n_max": (
        lambda: epsilon_eval(_tables()[1], _tables()[0], 3, -2, QPREC)),
    "epsilon_eval n < 0": (
        lambda: epsilon_eval(_tables()[1], _tables()[0], -1, -2, QPREC)),
    "epsilon_derivative_eval past n_max": (
        lambda: epsilon_derivative_eval(_tables()[1], _tables()[0], 3, -2,
                                        QPREC)),
    "ladder_integrals n < 0": (
        lambda: ladder_integrals(_tables()[1], _tables()[0], -1, QPREC)),
    "ladder_integrals past n_max": (
        lambda: ladder_integrals(_tables()[1], _tables()[0], 3, QPREC)),
    "ladder_ab_by_quadrature past n_max": (
        lambda: ladder_ab_by_quadrature(_tables()[1], 3, -2, QPREC)),
    "ladder_ab_by_quadrature n < 0": (
        lambda: ladder_ab_by_quadrature(_tables()[1], -1, -2, QPREC)),
    # a bare IndexError past n_max + 1, and [1] at n = -1
    "monic_values past n_max + 1": (
        lambda: monic_values(_tables()[1], 4, mp.mpf(-1))),
    "monic_values n < 0": lambda: monic_values(_tables()[1], -1, mp.mpf(-1)),
}
REFUSALS.update(DEGREE_REFUSALS)

# nan or inf data, refused by name: each returned nan or inf
NONFINITE_REFUSALS = {
    "to_hamiltonian nan theta": (
        lambda: to_hamiltonian(mp.nan, "0.1", "0.3", 1, PARAMS)),
    "from_hamiltonian inf p": (
        lambda: from_hamiltonian("2", mp.inf, "0.3", 1, PARAMS)),
    "hamiltonian_eval nan q": (
        lambda: hamiltonian_eval(mp.nan, "0.1", "0.3",
                                 PVParams.make(1, 2, 2))),
    "hamilton_rhs inf t": (
        lambda: hamilton_rhs("2", "0.1", mp.inf, PVParams.make(1, 2, 2))),
    "ode_rhs nan kappa": lambda: ode_rhs("-0.1", mp.nan, 1, "0.3", PARAMS),
    "rr_rhs -inf r": lambda: rr_rhs("0.5", -mp.inf, 1, "0.3", PARAMS),
    "monic_values nan x": lambda: monic_values(_tables()[1], 2, mp.nan),
    "orthopoly_eval inf x": lambda: orthopoly_eval(_tables()[1], 2, mp.inf),
    "dN_kernel -inf y": lambda: dN_kernel(_tables()[1], 1, -mp.inf, 2),
    # compatibility_residual returned nan at x = nan and 0.0, a passing
    # residual, at x = +-inf
    "compatibility_residual nan x": (
        lambda: compatibility_residual(PARAMS, 1, mp.nan, "0.3")),
    "compatibility_residual inf x": (
        lambda: compatibility_residual(PARAMS, 1, mp.inf, "0.3")),
    "compatibility_residual -inf x": (
        lambda: compatibility_residual(PARAMS, 1, -mp.inf, "0.3")),
    # a non-finite t* raised "cannot convert inf or nan to int" from the
    # moment recurrence's guard bits, or (moment_series) gave nan
    "compatibility_residual nan t": (
        lambda: compatibility_residual(PARAMS, 1, -1, mp.nan)),
    "deformation_residual inf t": (
        lambda: deformation_residual(PARAMS, 1, -1, mp.inf)),
    "deformation_residual nan t": (
        lambda: deformation_residual(PARAMS, 1, -1, mp.nan)),
    "moment_jets inf about": lambda: moment_jets(3, PARAMS, 1, mp.inf),
    "moment_jets -inf about": lambda: moment_jets(3, PARAMS, 1, -mp.inf),
    "moment_series nan about": lambda: moment_series(2, PARAMS, 1, mp.nan),
    "aux_pair_series nan about": (
        lambda: aux_pair_series(1, PARAMS, 1, about=mp.nan)),
    "aux_pair_series inf about": (
        lambda: aux_pair_series(1, PARAMS, 1, about=mp.inf)),
    "ab_flow_check nan node": (
        lambda: ab_flow_check(PARAMS, 1, ["0.2", mp.nan, "0.4"])),
    "ab_flow_check inf node": (
        lambda: ab_flow_check(PARAMS, 1, ["0.2", mp.inf, "0.4"])),
    # finite_difference returned FDResult(nan, nan)
    "finite_difference nan h": lambda: finite_difference(mp.exp, 1, mp.nan),
    "finite_difference inf h": lambda: finite_difference(mp.exp, 1, mp.inf),
    "finite_difference nan x0": (
        lambda: finite_difference(mp.exp, mp.nan, "1e-3")),
    "finite_difference -inf x0": (
        lambda: finite_difference(mp.exp, -mp.inf, "1e-3", order=2)),
}
REFUSALS.update(NONFINITE_REFUSALS)


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_is_typed(name):
    """Each raised a bare ValueError; existing `except ValueError` callers
    still catch it."""
    with pytest.raises(UnsupportedParameters) as info:
        REFUSALS[name]()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("name", sorted(DEGREE_REFUSALS))
def test_degree_refused_by_name_before_quadrature(monkeypatch, name):
    """Each raised a bare IndexError, or read the table from its end (n =
    -1 gave theta of the last row, D_{-1} = 0), some after a climb."""
    _tables()

    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrated at a degree the table cannot serve")

    for module in (hankel, oracle, semiclassical):
        monkeypatch.setattr(module, "integrate_weighted", no_quadrature)
    with pytest.raises(UnsupportedParameters,
                       match=r"=-?\d+ is outside 0\.\."):
        DEGREE_REFUSALS[name]()


@pytest.mark.parametrize("name", sorted(NONFINITE_REFUSALS))
def test_nonfinite_refusal_names_the_value(name):
    with pytest.raises(UnsupportedParameters,
                       match=r"must be finite, got \w+ = -?(nan|\+?inf)$"):
        NONFINITE_REFUSALS[name]()


def test_closed_form_size_bound_names_the_sum():
    """S = k + alpha + mu past the bound is refused before the factorials
    (one moment took 41 s at mu = 10^4; the command line's tests time
    mu = 10^12 and alpha = 10^8)."""
    with pytest.raises(UnsupportedParameters,
                       match=r"k \+ alpha \+ mu <= 2048, got 2049"):
        moment_closed_form(1, WeightParams(2000, 48, 0, "0.3"),
                           PrecisionCtx())


CAUCHY_VIEWS = {
    "cauchy_sweep": lambda mom, tab, x, prec: cauchy_sweep(tab, 1, x, prec),
    "cauchy_transform": (
        lambda mom, tab, x, prec: cauchy_transform(tab, 1, x, prec)),
    "epsilon_eval": lambda mom, tab, x, prec: epsilon_eval(tab, mom, 1, x,
                                                           prec),
    "epsilon_derivative_eval": (
        lambda mom, tab, x, prec: epsilon_derivative_eval(tab, mom, 1, x,
                                                          prec)),
    "stieltjes_eval": lambda mom, tab, x, prec: stieltjes_eval(mom, x, prec),
}


@pytest.mark.parametrize("x", [mp.nan, -mp.inf, mp.mpc(mp.nan, 1),
                               mp.mpc(-2, mp.inf)], ids=str)
@pytest.mark.parametrize("name", sorted(CAUCHY_VIEWS))
def test_non_finite_cauchy_point_refused(monkeypatch, name, x):
    """A Cauchy-kernel point that is not finite is refused by name before
    any quadrature; it raised an untyped ValueError ("cannot convert inf
    or nan to int") while sizing the sweep's width."""
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrated at a non-finite x")

    monkeypatch.setattr(hankel, "integrate_weighted", no_quadrature)
    mom, tab = _tables()
    with pytest.raises(UnsupportedParameters, match="x must be finite"):
        CAUCHY_VIEWS[name](mom, tab, x, PrecisionCtx(192, "1e-28"))


def _pair():
    return theta_kappa_from_recurrence(_tables()[1], 1)


# a pole 0 or t of A_n(x) and B_n(x), or a non-finite x: each raised a
# bare ZeroDivisionError, ended in QuadratureFailure ("... differ by nan")
# or, at x = "0.3" against the table's t rounded 20 bits narrower than x,
# returned A_1 = -9.1e38
AB_POINT_REFUSALS = {
    "by_quadrature x = 0": (
        lambda: ladder_ab_by_quadrature(_tables()[1], 1, 0, QPREC)),
    "by_quadrature x = t": (
        lambda: ladder_ab_by_quadrature(_tables()[1], 1, "0.3", QPREC)),
    "by_quadrature x = nan": (
        lambda: ladder_ab_by_quadrature(_tables()[1], 1, mp.nan, QPREC)),
    "at x = 0": lambda: ladder_ab_at(_pair(), PARAMS, 0),
    "at x = t": lambda: ladder_ab_at(_pair(), PARAMS, "0.3"),
    "at x = t rounded": lambda: ladder_ab_at(_pair(), PARAMS, _pair().t),
    "at x = inf": lambda: ladder_ab_at(_pair(), PARAMS, mp.inf),
}


@pytest.mark.parametrize("name", sorted(AB_POINT_REFUSALS))
def test_ladder_ab_point_refused_by_name(monkeypatch, name):
    _tables()

    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrated at a point A_n and B_n lack")

    monkeypatch.setattr(semiclassical, "integrate_weighted", no_quadrature)
    with pytest.raises(UnsupportedParameters, match=r"^x must"):
        AB_POINT_REFUSALS[name]()


def test_tensor_nodes_refused_before_any_list(monkeypatch):
    """nodes < 2 is refused before a node list is asked for."""
    def no_lists(*args, **kwargs):
        raise AssertionError("built a node list for nodes < 2")

    monkeypatch.setattr(oracle, "weighted_nodes", no_lists)
    with pytest.raises(UnsupportedParameters, match="nodes must be >= 2"):
        delta_by_quadrature(PARAMS, 2, PrecisionCtx(), nodes=0)


@pytest.mark.parametrize("nodes", [2.5, 20.0, "20", None])
def test_tensor_nodes_that_are_not_integers_refused_by_name(monkeypatch,
                                                             nodes):
    """A nodes that is not an integer is refused by name before a node
    list is asked for."""
    def no_lists(*args, **kwargs):
        raise AssertionError("built a node list for a non-integer nodes")

    monkeypatch.setattr(oracle, "weighted_nodes", no_lists)
    with pytest.raises(UnsupportedParameters,
                       match=f"^nodes must be an integer, got nodes = "
                             f"{re.escape(repr(nodes))}$"):
        delta_by_quadrature(PARAMS, 2, PrecisionCtx(), nodes=nodes)


def test_finite_difference_zero_step_refused_by_name():
    with pytest.raises(UnsupportedParameters,
                       match=r"^h must be nonzero, got h = 0$"):
        finite_difference(mp.exp, 1, mp.mpf(0), order=2)


def test_pv_residual_zero_spacing_refused_by_name():
    """Nine equal grid points raised a bare ZeroDivisionError."""
    with mp.workprec(64):
        grid = [mp.mpf("0.3")] * 9
    with pytest.raises(UnsupportedParameters,
                       match=r"^grid spacing must be nonzero, got h = 0$"):
        pv_residual(grid, [2] * 9, (0, 0, 0, 0))


# each with y0 given, so that no series is built; the message's start
EVOLVE_REFUSALS = {
    # integrated until a singularity or until MAX_STEPS ran out
    "t1 = inf": (dict(t1=mp.inf), r"t1 must be finite, got t1 = \+inf$"),
    "t0 = nan": (dict(t0=mp.nan), r"t0 must be finite, got t0 = nan$"),
    "t1 complex": (dict(t1=mp.mpc("0.3", 1)), r"t0 and t1 must be real"),
    # a misleading SingularityEncountered
    "y0 nan": (dict(y0=(mp.nan, "0.001")), r"y0 must be two finite real"),
    "y0 inf": (dict(y0=("-0.001", mp.inf)), r"y0 must be two finite real"),
    # an AttributeError
    "y0 complex": (dict(y0=(mp.mpc("-0.001", "1e-6"), "0.001")),
                   r"y0 must be two finite real"),
    # an IndexError
    "y0 one value": (dict(y0=("-0.001",)), r"y0 must be two finite real"),
    "y0 three values": (dict(y0=("-0.001", "0.001", "0")),
                        r"y0 must be two finite real"),
    "y0 not numbers": (dict(y0=("a", "b")), r"y0 must be two finite real"),
    # a TypeError
    "n = 1.5": (dict(n=1.5), r"n must be an integer, got n = 1\.5$"),
}


@pytest.mark.parametrize("name", sorted(EVOLVE_REFUSALS))
def test_evolve_refuses_before_any_step(monkeypatch, name):
    def no_steps(*args, **kwargs):
        raise AssertionError("stepped on input it should refuse")

    monkeypatch.setattr(painleve, "_flow_jet_factory", no_steps)
    monkeypatch.setattr(painleve, "_series_data", no_steps)
    given, message = EVOLVE_REFUSALS[name]
    call = dict(n=1, t0="1e-3", t1="0.3", y0=("-0.001", "0.001"))
    call.update(given)
    with pytest.raises(UnsupportedParameters, match="^" + message):
        evolve(call["n"], call["t0"], call["t1"], PARAMS, y0=call["y0"])


@functools.lru_cache(maxsize=None)
def _short_trajectory():
    return evolve(1, "1e-3", "2e-3", PARAMS)


# a TypeError each ("cannot unpack non-iterable mpc object" for an mpc)
QUERY_REFUSALS = {
    "eval mpc": lambda: _short_trajectory().eval(mp.mpc("1.5e-3", 1)),
    "eval complex": lambda: _short_trajectory().eval(1.5e-3 + 1j),
    "eval None": lambda: _short_trajectory().eval(None),
    "sample mpc": lambda: _short_trajectory().sample(
        ["1.5e-3", mp.mpc("1.5e-3", 1)]),
    "sample None": lambda: _short_trajectory().sample([None]),
    "sample not a number": lambda: _short_trajectory().sample(["soon"]),
}


@pytest.mark.parametrize("name", sorted(QUERY_REFUSALS))
def test_dense_output_query_refused_by_name(name):
    with pytest.raises(UnsupportedParameters,
                       match=r"^query must be a finite real number, got "):
        QUERY_REFUSALS[name]()


# -1 raised an IndexError, 2.5 and "3" a TypeError
@pytest.mark.parametrize("order", [-1, 2.5, "3"])
@pytest.mark.parametrize("call", [
    lambda order: series_init(1, "1e-3", PARAMS, order=order),
    lambda order: aux_pair_series(1, PARAMS, order)],
    ids=["series_init", "aux_pair_series"])
def test_series_order_refused_by_name(call, order):
    with pytest.raises(UnsupportedParameters,
                       match=f"^order must be a non-negative integer, got "
                             f"order = {re.escape(repr(order))}$"):
        call(order)


# a bare TypeError each ("'float' object cannot be interpreted as an
# integer") from inside the moment jets
@pytest.mark.parametrize("call, name", [
    (lambda n: series_init(n, "1e-3", WeightParams(2, 2, "0.5", "0.3")), "n"),
    (lambda n: aux_pair_series(n, PARAMS, 3), "n_max")],
    ids=["series_init", "aux_pair_series"])
def test_series_n_refused_by_name(call, name):
    with pytest.raises(UnsupportedParameters,
                       match=f"^{name} must be an integer, got {name} = 1.5$"):
        call(1.5)
