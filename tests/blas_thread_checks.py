"""Full-size ``bilstm_max`` checks that need a set OpenBLAS thread count.

OpenBLAS reads its thread count once, when numpy loads it, so
``test_autodiff`` runs each check in a child process. By hand:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/blas_thread_checks.py oracle
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 tests/blas_thread_checks.py two_threads
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/blas_thread_checks.py frozen_rule

A check that fails raises, so the process exits non-zero with a traceback.
"""
import os
import sys

import numpy as np

import padded_lstm
import separate_buffer_lstm
from dialoglow import autodiff as ad
from helpers import project

D, H = 300, 256  # ModelConfig's embedding and hidden sizes


def full_size(rng, lengths, extra_steps=0):
    """A random padded batch for these lengths, with non-zero padding, and full-size weights."""
    x = rng.normal(scale=0.5, size=(len(lengths), max(lengths) + extra_steps, D))
    params = [rng.uniform(-0.1, 0.1, size=shape) for shape in ((4 * H, D + H), (4 * H,)) * 2]
    return x, params, rng.normal(size=(len(lengths), 2 * H))


def real_steps(x, lengths):
    """The real steps of a padded batch's rows, back to back: (sum(lengths), d)."""
    return np.concatenate([row[:n] for row, n in zip(x, lengths)])


def packed(x, lengths, params, g):
    """(u, [dx, dw_fwd, db_fwd, dw_bwd, db_bwd]) of ``ad.bilstm_max`` for output gradient g.

    ``x`` is a padded batch; the op gets its real steps, and dx is theirs.
    """
    x = ad.Tensor(real_steps(x, lengths), requires_grad=True)
    tensors = [ad.Tensor(p, requires_grad=True) for p in params]
    with ad.Tape() as tape:
        u = ad.bilstm_max(x, lengths, *tensors)
        grads = ad.backward(tape, project(u, g))
    return u.data, [grads[t] for t in (x, *tensors)]


def near(got, want, tol=1e-12):
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def rowwise(a, b):
    """``a @ b`` summed in one fixed order per entry, whatever the row count (no BLAS)."""
    return np.einsum("ij,jk->ik", a, b, optimize=False)


def oracle():
    """The packed op against the frozen padded encoder, on the two-thread path.

    With BLAS products, the outputs are bit-identical and the gradients
    agree to 1e-12 of their largest entry: OpenBLAS may round a row of a
    product with 1024 inputs per entry, as dx's and BPTT's are, differently
    with the product's row count. With ``rowwise`` products in both, dx is
    bit-identical too. The weight and bias gradients sum the same terms over
    fewer rows either way, so they agree to 1e-12.
    """
    assert os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    os.sched_getaffinity = lambda pid: {0, 1}
    assert ad._cores_for_both_directions()
    rng = np.random.default_rng(12)
    cases = {
        "unsorted, ties, length 1": [3, 11, 7, 1, 11, 5, 9],
        "all equal": [6, 6, 6, 6, 6],
        "one live row at the last steps": [12, 3, 5, 2],
        "every row length 1": [1, 1, 1],
        # The padded encoder stepped a one-row batch on BLAS's matrix-vector
        # path, so its oracle is that row in a batch of two.
        "one row": [7],
        "one row of one step": [1],
    }
    blas_product = ad._product
    for name, lengths in cases.items():
        together = lengths + [4] if len(lengths) == 1 else lengths
        x, params, g = full_size(rng, together, extra_steps=2)
        g[len(lengths) :] = 0.0  # the second row adds nothing to the weight gradients
        for matmul in (np.matmul, rowwise):
            ad._product = blas_product if matmul is np.matmul else rowwise
            n = len(lengths)
            u, grads = packed(x, lengths, params, g[:n])
            u_want, grads_want = padded_lstm.bilstm_max(x, together, params, g, matmul)
            dx_want = real_steps(grads_want[0], lengths)
            assert np.array_equal(u, u_want[:n]), (name, matmul)
            assert near(grads[0], dx_want), (name, matmul)
            assert matmul is np.matmul or np.array_equal(grads[0], dx_want), name
            assert all(near(a, b) for a, b in zip(grads[1:], grads_want[1:])), (name, matmul)
    ad._product = blas_product


def two_threads():
    """The packed op against the frozen padded encoder on two BLAS threads.

    The padded batch has three more steps of random non-zero padding. The
    outputs are bit-identical and the gradients agree to 1e-12 of their
    largest entry: OpenBLAS's threaded GEMM may round a row of a product
    differently with the product's row count.
    """
    assert os.environ.get("OPENBLAS_NUM_THREADS") == "2"
    rng = np.random.default_rng(8)
    lengths = np.maximum(1, rng.poisson(11, size=15)).tolist()
    x, params, g = full_size(rng, lengths, extra_steps=3)
    u, grads = packed(x, lengths, params, g)
    u_want, grads_want = padded_lstm.bilstm_max(x, lengths, params, g)
    assert np.array_equal(u, u_want)
    assert near(grads[0], real_steps(grads_want[0], lengths))
    assert all(near(a, b) for a, b in zip(grads[1:], grads_want[1:]))


def frozen_rule():
    """The op against itself run on the frozen ``separate_buffer_lstm`` direction.

    The BPTT rule that works in the forward's buffers must give the output
    and all five gradients bit for bit as the rule that kept buffers of its
    own, on one OpenBLAS thread (where full-size directions run on two
    threads, sharing the packed input) and on two (one direction after the
    other, each product on two threads).
    """
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    assert threads in ("1", "2")
    os.sched_getaffinity = lambda pid: {0, 1}
    assert ad._cores_for_both_directions() == (threads == "1")
    rng = np.random.default_rng(28)
    cases = {
        "dialogue-shaped": np.maximum(1, rng.poisson(11, size=15)).tolist(),
        "one row": [7],
        "one-step rows": [1, 1, 1, 1],
        "equal lengths": [6, 6, 6, 6, 6],
    }
    runs = [(name, *full_size(rng, lengths), lengths) for name, lengths in cases.items()]
    # test_max_over_time_routes_to_first_argmax's all-tie case: with zero
    # weights and f = 0 every step of a row has the same hidden state.
    hid, d = 2, 3
    b = np.repeat([0.4, -1000.0, 0.9, 0.2], hid)
    tie = [np.zeros((4 * hid, d + hid)), b] * 2
    runs.append(("all ties", rng.normal(size=(2, 4, d)), tie, rng.uniform(0.5, 1.5, (2, 2 * hid)),
                 [4, 2]))
    separate = separate_buffer_lstm.pooled_lstm
    in_place = ad._pooled_lstm
    for name, x, params, g, lengths in runs:
        u, grads = packed(x, lengths, params, g)
        ad._pooled_lstm = separate
        try:
            u_want, grads_want = packed(x, lengths, params, g)
        finally:
            ad._pooled_lstm = in_place
        assert np.array_equal(u, u_want), name
        assert len(grads) == 5 and all(np.array_equal(a, b) for a, b in zip(grads, grads_want)), name


if __name__ == "__main__":
    {"oracle": oracle, "two_threads": two_threads, "frozen_rule": frozen_rule}[sys.argv[1]]()
