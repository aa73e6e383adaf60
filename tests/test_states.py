import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from qsteer.randgen import RandomStateSpec, random_pure_batch, random_state_batch
from qsteer.states import (
    TRACE_TOL,
    density_from_pure,
    ghz_state,
    schmidt_points,
    schmidt_state,
    state_from_payload,
    state_to_payload,
    validate_state,
    w_state,
)
from qsteer.steering import partial_trace, permute_qubits, purity, purity_deficit, steering_report

from conftest import oracle_ptrace, random_mixed_density, random_pure_density

R2 = 1 / np.sqrt(2)


class TestFamilies:
    def test_ghz_endpoints(self):
        assert_allclose(ghz_state(0.0), np.eye(8)[7], atol=1e-15)
        assert_allclose(ghz_state(np.pi / 2), np.eye(8)[0], atol=1e-15)

    def test_ghz_balanced(self):
        psi = ghz_state(np.pi / 4)
        assert_allclose(psi[0], R2)
        assert_allclose(psi[7], R2)
        assert_allclose(np.delete(psi, [0, 7]), 0, atol=1e-15)

    def test_w_examples(self):
        psi = w_state(np.pi / 3, np.pi / 2)
        assert_allclose(psi[4], np.sqrt(3) / 2)
        assert_allclose(psi[2], 0.5)
        assert_allclose(psi[1], 0, atol=1e-15)

        assert_allclose(w_state(0.7, 0.0), np.eye(8)[1], atol=1e-15)

        psi = w_state(np.pi / 3, np.pi / 4)
        assert_allclose(psi[4], np.sqrt(3) / 2 * R2)
        assert_allclose(psi[2], 0.5 * R2)
        assert_allclose(psi[1], R2)

    def test_families_normalized(self, rng):
        for _ in range(50):
            th, al = rng.uniform(0, 2 * np.pi, 2)
            assert_allclose(np.linalg.norm(ghz_state(th)), 1.0, atol=1e-12)
            assert_allclose(np.linalg.norm(w_state(th, al)), 1.0, atol=1e-12)

    def test_builders_take_stacks(self, rng):
        # an array of angles gives a (..., 8) stack, each row the bits of its
        # angles alone; a scalar gives one (8,) state
        theta, alpha = rng.uniform(-7.0, 7.0, (2, 3, 5))
        for build, args in ((ghz_state, (theta,)), (w_state, (theta, alpha)), (w_state, (0.3, alpha))):
            stack = build(*args)
            assert stack.shape == (3, 5, 8)
            for i in np.ndindex(3, 5):
                one = build(*(float(a[i]) if np.ndim(a) else a for a in args))
                assert one.shape == (8,)
                assert one.tobytes() == stack[i].tobytes()

    def test_schmidt_placement(self):
        assert_allclose(schmidt_state((1, 0, 0, 0)), np.eye(8)[0], atol=1e-15)
        assert_allclose(schmidt_state((0, 1, 0, 0)), np.eye(8)[4], atol=1e-15)
        psi = schmidt_state((0, 0, R2, R2))
        assert_allclose(psi[5], R2)
        assert_allclose(psi[6], R2)

    def test_schmidt_state_is_normalised(self, rng):
        # a point accepted off the sphere gives the unit state of its direction,
        # each row the same bits alone and in a stack
        p = np.abs(rng.standard_normal((50, 4)))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        p *= 1.0 + rng.uniform(-4.5e-10, 4.5e-10, (50, 1))
        stack = schmidt_state(p)
        for row, psi in zip(p, stack):
            assert np.array_equal(schmidt_state(row), psi)
        assert_allclose(np.linalg.norm(stack, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_schmidt_rejects_bad_params(self):
        # the rule's two messages, the point printed as plain floats
        with pytest.raises(ValueError, match=r"^Schmidt coordinates off the unit sphere by 1\.100e-01$"):
            schmidt_state((0.5, 0.5, 0.5, 0.6))
        with pytest.raises(ValueError, match=r"^Schmidt coordinates must be finite and nonnegative, "
                                             r"got \(-0\.1, 0\.994987, 0\.0, 0\.0\)$"):
            schmidt_points(np.array([-0.1, 0.994987, 0, 0]))

    @pytest.mark.parametrize("rows", [
        [(0, 0, R2, R2), (0.6, -0.8, 0, 0), (0.5, 0.5, 0.5, 0.6)],
        [(0, 0, R2, R2), (0.5, 0.5, 0.5, 0.6), (0.6, -0.8, 0, 0)],
        [(0, 0, R2, R2), (np.nan, 0, 0, 1), (0.6, -0.8, 0, 0)],
    ])
    def test_schmidt_stack_raises_for_first_bad_row(self, rows):
        # the message of the first bad row alone, in plain floats, not numpy scalar reprs
        with pytest.raises(ValueError) as first:
            schmidt_points(rows[1])
        with pytest.raises(ValueError) as stack:
            schmidt_state(rows)
        assert str(stack.value) == str(first.value)
        assert "np.float64" not in str(stack.value)


class TestDensity:
    def test_basis_state(self):
        rho = density_from_pure(np.eye(8)[0])
        assert_allclose(rho[0, 0], 1.0)
        assert_allclose(np.abs(rho).sum(), 1.0)

    def test_ghz_entries(self):
        rho = density_from_pure(ghz_state(np.pi / 4))
        for i, j in [(0, 0), (0, 7), (7, 0), (7, 7)]:
            assert_allclose(rho[i, j], 0.5, atol=1e-15)

    def test_trace_and_purity(self, rng):
        for _ in range(20):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            rho = density_from_pure(v / np.linalg.norm(v))
            assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
            assert_allclose(purity(rho), 1.0, atol=1e-12)
            assert validate_state(rho)["passed"]

    def test_every_built_pure_state_reads_zero_deficit(self, rng):
        # the steering kernel takes rho as pure exactly where purity_deficit
        # reads 0.0 under the DEFICIT_FLOOR clamp; every pure 8x8 state the
        # package builds must land there
        spec = RandomStateSpec(seed=7, mode="pure", count=2000)
        angles = np.linspace(-np.pi, np.pi, 1001)
        points = np.abs(rng.standard_normal((1000, 4)))
        vectors = random_pure_batch(spec, 0, 1000)
        sources = {
            "random_state_batch": random_state_batch(spec, 0, spec.count),
            "random_pure_batch": density_from_pure(random_pure_batch(spec, 1000, 2000)),
            "ghz": density_from_pure(ghz_state(angles)),
            "w": density_from_pure(w_state(angles[::25, None], angles[None, ::25]).reshape(-1, 8)),
            "schmidt": density_from_pure(schmidt_state(points / np.linalg.norm(points, axis=1, keepdims=True))),
            "payload": np.stack([state_from_payload(json.loads(json.dumps(state_to_payload(v))))
                                 for v in vectors[:200]]),
        }
        for name, rhos in sources.items():
            assert rhos.shape[1:] == (8, 8), name
            assert np.count_nonzero(purity_deficit(rhos)) == 0, name


class TestPartialTrace:
    def test_ghz_marginal_maximally_mixed(self):
        rho = density_from_pure(ghz_state(np.pi / 4))
        assert_allclose(partial_trace(rho, ("A",)), np.eye(2) / 2, atol=1e-15)

    def test_product_state(self):
        rho = density_from_pure(np.eye(8)[0])
        red = partial_trace(rho, ("B", "C"))
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert_allclose(red, expect, atol=1e-15)

    def test_w_bc_marginal(self):
        # expected value frozen from the index-loop oracle
        rho = density_from_pure(w_state(np.pi / 3, np.pi / 2))
        red = partial_trace(rho, ("B", "C"))
        assert_allclose(red, oracle_ptrace(rho, (1, 2)), atol=1e-14)
        assert_allclose(red, np.diag([0.75, 0.0, 0.25, 0.0]), atol=1e-14)

    def test_matches_oracle_on_random_states(self, rng):
        for _ in range(5):
            rho = random_mixed_density(rng)
            for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
                assert_allclose(partial_trace(rho, keep), oracle_ptrace(rho, keep), atol=1e-13)

    def test_composition(self, rng):
        # tracing out B then C equals keeping A directly
        rho = random_mixed_density(rng)
        ac = partial_trace(rho, ("A", "C"))  # traced B
        a_direct = partial_trace(rho, ("A",))
        a_two_step = np.einsum("abcb->ac", ac.reshape(2, 2, 2, 2))
        assert_allclose(a_two_step, a_direct, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = random_mixed_density(rng)
        for keep in [(0,), (1, 2)]:
            assert_allclose(np.trace(partial_trace(rho, keep)).real, 1.0, atol=1e-12)

    def test_invalid_subsystem(self):
        rho = density_from_pure(ghz_state(0.3))
        with pytest.raises(ValueError):
            partial_trace(rho, ("A", "B", "C"))

    def test_pair_keeps_one_qubit(self):
        # a 4x4 pair keeps A or B; C, both qubits, and any shape but 4x4 or 8x8 raise
        pair = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        assert np.array_equal(partial_trace(pair, "A"), np.diag([0.75, 0.25]))
        assert np.array_equal(partial_trace(pair, (1,)), np.diag([0.625, 0.375]))
        for keep in ("C", ("A", "B")):
            with pytest.raises(ValueError, match=r"^invalid subsystem set "):
                partial_trace(pair, keep)
        for shape in ((2, 2), (8, 4), (16, 16)):
            with pytest.raises(ValueError, match=r"^expected a 4x4 or 8x8 density matrix or a stack of either, got "):
                partial_trace(np.eye(*shape), ("A",))

    def test_pair_matches_oracle(self, rng):
        # a stack of pairs gives each pair bit for bit as it gets it alone, and
        # the index-loop oracle's values; real product states carry signed zeros
        minus, zero = np.array([[0.5, -0.5], [-0.5, 0.5]]), np.diag([1.0, 0.0])
        pairs = np.stack([random_mixed_density(rng, dim=4) for _ in range(6)] + [random_pure_density(rng, dim=4)]
                         + [np.kron(minus, zero), np.kron(zero, minus)])
        for keep in ((0,), (1,)):
            got = partial_trace(pairs, keep)
            assert got.shape == (len(pairs), 2, 2)
            for pair, g in zip(pairs, got):
                assert partial_trace(pair, keep).tobytes() == g.tobytes()
                assert_allclose(g, oracle_ptrace(pair, keep, qubits=2), rtol=0, atol=1e-15)


class TestPermute:
    def test_ghz_symmetric(self):
        rho = density_from_pure(ghz_state(np.pi / 4))
        for perm in [("B", "C", "A"), ("C", "A", "B"), ("B", "A", "C")]:
            assert_allclose(permute_qubits(rho, perm), rho, atol=1e-15)

    def test_basis_relabeling(self):
        rho = density_from_pure(np.eye(8)[4])  # |100>
        out = permute_qubits(rho, ("B", "C", "A"))
        assert_allclose(out, density_from_pure(np.eye(8)[1]), atol=1e-15)  # |001>

    def test_round_trip_and_purity(self, rng):
        rho = random_mixed_density(rng)
        perm = (1, 2, 0)
        inv = (2, 0, 1)
        assert_allclose(permute_qubits(permute_qubits(rho, perm), inv), rho, atol=1e-15)
        assert_allclose(purity(permute_qubits(rho, perm)), purity(rho), atol=1e-13)

    def test_invalid_perm(self):
        rho = density_from_pure(ghz_state(0.3))
        with pytest.raises(ValueError):
            permute_qubits(rho, ("A", "A", "B"))

    def test_non_three_qubit_rejected(self):
        with pytest.raises(ValueError, match=r"^expected an 8x8 three-qubit density matrix, got \(4, 4\)$"):
            permute_qubits(np.eye(4) / 4, ("B", "C", "A"))


@pytest.mark.parametrize("call,labels,message", [
    (partial_trace, ("A", "D"), "invalid subsystem set"),
    (partial_trace, (True,), "invalid subsystem set"),
    (permute_qubits, ("A", "B", "D"), "invalid qubit permutation"),
    (permute_qubits, (True, 0, 2), "invalid qubit permutation"),
    (partial_trace, 1, "invalid subsystem set"),
    (partial_trace, None, "invalid subsystem set"),
    (permute_qubits, None, "invalid qubit permutation"),
], ids=["trace-unknown-name", "trace-bool", "permute-unknown-name", "permute-bool", "trace-bare-index",
        "trace-none", "permute-none"])
def test_label_is_a_name_or_an_integer(call, labels, message):
    # an unknown name beside the others, or a bool (which would pass as 1), is
    # no qubit; a bare index or None is no set of labels
    with pytest.raises(ValueError, match=f"^{message} {re.escape(repr(labels))}$"):
        call(np.eye(8) / 8, labels)


class TestValidate:
    def test_valid_state_passes(self, rng):
        diag = validate_state(random_mixed_density(rng))
        assert list(diag) == ["dim", "hermiticity_residual", "trace_residual", "min_eigenvalue", "passed"]
        assert diag["dim"] == 8 and diag["passed"] is True

    def test_hermiticity_failure_reports_residual(self, rng):
        rho = random_mixed_density(rng)
        rho[0, 1] += 1e-3
        diag = validate_state(rho)
        assert not diag["passed"]
        assert diag["hermiticity_residual"] == pytest.approx(1e-3, rel=0.1)

    def test_unknown_profile_rejected(self, rng):
        with pytest.raises(ValueError, match="'nope': choose from default, strict, loose"):
            validate_state(random_mixed_density(rng), "nope")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(4, 2\)$"):
            validate_state(np.ones((4, 2)) / 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a nonempty matrix, got shape \(0, 0\)$"):
            validate_state(np.zeros((0, 0)))
        with pytest.raises(ValueError, match=r"^expected a nonempty matrix, got shape \(0, 0\)$"):
            steering_report(np.zeros((0, 0)))

    def test_trace_failure(self, rng):
        diag = validate_state(0.9 * random_mixed_density(rng))
        assert diag["trace_residual"] > TRACE_TOL and not diag["passed"]

    def test_diagnostics_bit_identical_to_definitions(self, rng):
        psi = ghz_state(np.pi / 4)
        # the skew payloads of the CI smoke test, read back as the CLI reads them
        skew = [np.outer(psi, psi) + eps * 1j * (np.ones((8, 8)) - np.eye(8)) for eps in (1e-10, 1e-8, 5e-13)]
        skew = [state_from_payload(json.loads(json.dumps(state_to_payload(m)))) for m in skew]
        mats = [random_mixed_density(rng) for _ in range(10)] + skew + [0.9 * random_mixed_density(rng)]
        mats += [maker(rng, d) for maker in (random_mixed_density, random_pure_density) for d in (2, 4)]
        for rho in mats:
            diag = validate_state(rho)
            rho_h = rho.conj().T
            for got, expect in ((diag["hermiticity_residual"], np.max(np.abs(rho - rho_h))),
                                (diag["trace_residual"], abs(np.trace(rho) - 1)),
                                (diag["min_eigenvalue"], np.linalg.eigvalsh((rho + rho_h) / 2)[0])):
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(expect).tobytes()

    def test_deficit_matches_direct_form(self, rng):
        for _ in range(20):
            rho = random_mixed_density(rng, dim=4)
            assert_allclose(purity_deficit(rho), 1 - purity(rho), atol=1e-12)
        assert purity_deficit(random_pure_density(rng, dim=4)) == 0.0

    def test_deficit_shapes(self):
        # a 1x1 state has no minors and deficit 0.0; an empty, non-square or
        # 1-D input is no matrix
        assert purity_deficit(np.ones((1, 1))) == 0.0
        assert np.array_equal(purity_deficit(np.ones((3, 1, 1))), np.zeros(3))
        for shape in ((0, 0), (2, 0, 0), (4, 2), (4,), ()):
            message = f"expected a nonempty square matrix or a stack of them, got shape {shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                purity_deficit(np.zeros(shape))


# any finite double, subnormals included, small enough that |psi><psi| stays finite
FINITE = st.floats(-1e100, 1e100, allow_nan=False)


def _complex(parts: np.ndarray) -> np.ndarray:
    """Complex array from a trailing [re, im] axis, without arithmetic."""
    return np.ascontiguousarray(parts).view(complex)[..., 0]


class TestPayload:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda q: arrays(np.float64, (2**q, 2), elements=FINITE)))
    def test_pure_round_trip_is_bit_exact(self, parts):
        psi = _complex(parts)
        back = state_from_payload(json.loads(json.dumps(state_to_payload(psi))))
        assert back.tobytes() == density_from_pure(psi).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda q: arrays(np.float64, (2**q, 2**q, 2), elements=FINITE)))
    def test_mixed_round_trip_is_bit_exact(self, parts):
        rho = _complex(parts)
        back = state_from_payload(json.loads(json.dumps(state_to_payload(rho))))
        assert back.tobytes() == rho.tobytes()

    def test_pure_round_trip(self):
        psi = ghz_state(0.4)
        rho = state_from_payload(json.loads(json.dumps(state_to_payload(psi))))
        assert_allclose(rho, density_from_pure(psi), atol=1e-15)

    def test_mixed_round_trip(self, rng):
        rho = random_mixed_density(rng)
        back = state_from_payload(json.loads(json.dumps(state_to_payload(rho))))
        assert_allclose(back, rho, atol=1e-15)

    def test_rejects_malformed_dimensions(self):
        with pytest.raises(ValueError):
            state_from_payload({"qubits": 3, "kind": "pure", "amplitudes": [[1, 0]] * 7})
        with pytest.raises(ValueError):
            state_from_payload({"qubits": 4, "kind": "pure", "amplitudes": [[1, 0]] * 16})
        with pytest.raises(ValueError):
            state_from_payload({"qubits": 2, "kind": "mixed", "matrix": [[[1, 0]] * 3] * 4})
        with pytest.raises(ValueError):
            state_from_payload({"qubits": 2, "kind": "funky"})
        with pytest.raises(ValueError, match="^state payload must be a JSON object$"):
            state_from_payload([])

    def test_to_payload_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"^amplitude vector length 6 is not 2\^q for q in 1..3$"):
            state_to_payload(np.ones(6) / 6**0.5)
        with pytest.raises(ValueError, match=r"^matrix shape \(4, 2\) is not 2\^q x 2\^q for q in 1..3$"):
            state_to_payload(np.ones((4, 2)))
        # no log2 of the length: an empty vector and a 0-d array are shape errors too
        with pytest.raises(ValueError, match=r"^amplitude vector length 0 is not 2\^q for q in 1..3$"):
            state_to_payload(np.ones(0))
        with pytest.raises(ValueError, match=r"^matrix shape \(\) is not 2\^q x 2\^q for q in 1..3$"):
            state_to_payload(np.array(1.0))
