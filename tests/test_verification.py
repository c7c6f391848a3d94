import gc
import os
import pickle
import signal
import warnings

import pytest

from klmatroids import matroid as matroid_module
from klmatroids import tableaux, verification
from klmatroids.closedforms import RhoUniformParams, build_rho_uniform
from klmatroids.errors import ExchangeAxiomViolation
from klmatroids.exactarith import IntPoly
from klmatroids.identities import IdentityReport
from klmatroids.matroid import clear_caches, kl_poly_recurrence, uniform_matroid
from klmatroids.verification import BrokenPool, kl_defining_equation_holds


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# Checkers must be module-level to reach a worker.  The failing ones fail at
# one point of range(8), whichever worker serves it.


def holds(point: int) -> bool:
    return point >= 0


def fails_with_value_error(point: int) -> bool:
    if point == 5:
        raise ValueError(f"no good at {point}")
    return True


def answers_a_generator(point: int):
    return (point for _ in ())


def fails_with_exchange_violation(point: int) -> bool:
    # three arguments to __init__: the exception pickles but does not unpickle
    if point == 5:
        raise ExchangeAxiomViolation((1, 2), (3, 4), 1)
    return True


class TestDefiningEquation:
    @pytest.mark.parametrize(
        "matroid",
        [uniform_matroid(2, 4), build_rho_uniform(RhoUniformParams(2, 4, 1))],
    )
    def test_check_builds_no_minor(self, monkeypatch, fresh_caches, matroid):
        # warm, the check builds no matroid at all: the recurrence memoized its sum
        kl_poly_recurrence(matroid)
        built = []
        original = matroid_module.matroid_from_bases

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(matroid_module, "matroid_from_bases", counted)
        assert kl_defining_equation_holds(matroid)
        assert built == []

    @pytest.mark.parametrize("degree", [0, 3])
    def test_one_wrong_minor_fails(self, monkeypatch, fresh_caches, degree):
        # U(1, 3) is its own localization at the top flat; a wrong term of
        # degree 0 changes P, one of degree 3 lies where the solver never reads
        matroid = uniform_matroid(1, 3)
        original = matroid_module.char_poly
        bump = IntPoly([0] * degree + [1])

        def off_by_one(m):
            poly = original(m)
            return poly + bump if m == matroid else poly

        monkeypatch.setattr(matroid_module, "char_poly", off_by_one)
        assert not kl_defining_equation_holds(matroid)


    def test_wrong_z_result_fails(self, monkeypatch, fresh_caches):
        # the recurrence and its full-degree equation still hold, so only the
        # comparison of the two routes can catch this
        matroid = uniform_matroid(1, 3)
        original = matroid_module._z_solve
        monkeypatch.setattr(
            matroid_module, "_z_solve", lambda m: original(m) + IntPoly([0, 1])
        )
        assert not kl_defining_equation_holds(matroid)
        monkeypatch.setattr(matroid_module, "_z_solve", original)
        # the wrong result stays on the matroid; one built afresh is solved again
        clear_caches()
        rebuilt = uniform_matroid(1, 3)
        assert rebuilt is not matroid and kl_defining_equation_holds(rebuilt)

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda p, total: (p + IntPoly([1]), total),
            lambda p, total: (p, total + IntPoly([1])),
        ],
        ids=["P plus one", "sum off by one at t^0"],
    )
    def test_a_wrong_constant_term_fails(self, monkeypatch, fresh_caches, wrong):
        # the Z route sets every constant term to 1 without reading a slot, so
        # its own constant-term checks cannot fail; this check guards the
        # recurrence's constant term
        original = matroid_module._recurrence_solve
        monkeypatch.setattr(matroid_module, "_recurrence_solve", lambda m: wrong(*original(m)))
        for matroid in (uniform_matroid(3, 3), build_rho_uniform(RhoUniformParams(2, 4, 1))):
            assert not kl_defining_equation_holds(matroid)
        assert not verification.sweep_theorem1(6, jobs=1).passed


class TestMinorsSweep:
    def test_a_misplaced_prediction_fails(self, monkeypatch):
        # without its offset, the contraction inside the second block of
        # U(3, 3; 2) is isomorphic to the computed one, but labelled otherwise
        original = verification.classify_minor
        monkeypatch.setattr(
            verification, "classify_minor", lambda *args: original(*args)._replace(offset=0)
        )
        report = verification.sweep_minors(6, jobs=1)
        assert report.failures == (RhoUniformParams(3, 3, 2),)


class TestProcessFanOut:
    def test_theorem1_matches_serial(self):
        serial = verification.sweep_theorem1(6, jobs=1)
        fanned = verification.sweep_theorem1(6, jobs=2)
        assert serial.passed and serial.points == 36
        assert fanned == serial

    def test_symmetry_matches_serial(self):
        grid = dict(a_max=3, b_max=3, i_max=2, cell_max=8)
        serial = verification.sweep_symmetry(**grid, jobs=1)
        fanned = verification.sweep_symmetry(**grid, jobs=2)
        assert serial.passed and serial.points > 8
        assert fanned == serial

    def test_failures_keep_grid_order(self):
        # several chunks per worker, failures spread across all of them
        points = [str(k) if k % 3 else f"x{k}" for k in range(40)]
        serial = verification._run_points("t", "g", points, str.isdigit, 1)
        fanned = verification._run_points("t", "g", points, str.isdigit, 2)
        assert serial == IdentityReport.of("t", "g", points, map(str.isdigit, points))
        assert serial.failures == tuple(f"x{k}" for k in range(0, 40, 3))
        assert fanned == serial

    def test_sweeps_share_one_pool(self):
        verification.sweep_theorem2(6, jobs=2)
        pool = verification._pool
        workers = list(pool.pids)
        verification.sweep_charpoly(6, jobs=2)
        assert verification._pool is pool and pool.pids == workers
        assert len(workers) == min(2, verification.default_jobs())

    def test_other_worker_counts_replace_the_pool(self, monkeypatch):
        # the pool is kept per worker count, min(jobs, default_jobs())
        grid = dict(a_max=3, b_max=3, i_max=2, cell_max=8)
        verification._drop_pool()
        monkeypatch.setattr(verification, "default_jobs", lambda: 2)
        try:
            assert verification.sweep_counting(**grid, jobs=2).passed
            old = verification._pool
            workers = list(old.pids)
            assert len(workers) == 2
            assert verification.sweep_counting(**grid, jobs=3).passed
            assert verification._pool is old and old.pids == workers
            monkeypatch.setattr(verification, "default_jobs", lambda: 1)
            assert verification.sweep_counting(**grid, jobs=3).passed
            assert verification._pool is not old and verification._pool.size == 1
            assert len(verification._pool.pids) == 1
            assert all(reaped(pid) for pid in workers)
        finally:
            verification._drop_pool()

    def test_killed_worker_breaks_one_sweep_only(self):
        verification.sweep_theorem2(6, jobs=2)
        pool = verification._pool
        workers = list(pool.pids)
        os.kill(workers[0], signal.SIGKILL)
        with pytest.raises(BrokenPool):
            verification.sweep_theorem2(6, jobs=2)
        assert verification._pool is None
        assert all(reaped(pid) for pid in workers)
        again = verification.sweep_theorem2(6, jobs=2)
        assert again.passed and again.points > 1
        assert verification._pool is not None and verification._pool is not pool
        assert not set(verification._pool.pids) & set(workers)

    @pytest.mark.parametrize(
        "checker, error, message",
        [
            (fails_with_value_error, ValueError, "no good at 5"),
            (lambda point: True, pickle.PicklingError, "lambda"),  # the task does not pickle
            (answers_a_generator, TypeError, "generator"),  # the answer does not pickle
        ],
    )
    def test_an_error_reaches_the_caller_and_reaps_the_workers(self, checker, error, message):
        verification._run_points("t", "g", range(8), holds, 2)
        workers = list(verification._pool.pids)
        with pytest.raises(error, match=message):
            verification._run_points("t", "g", range(8), checker, 2)
        assert verification._pool is None
        assert workers and all(reaped(pid) for pid in workers)

    def test_an_interrupt_kills_and_reaps_the_workers(self, monkeypatch):
        verification._run_points("t", "g", range(8), holds, 2)
        workers = list(verification._pool.pids)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(verification.select, "select", interrupted)
        with pytest.raises(KeyboardInterrupt):
            verification._run_points("t", "g", range(8), holds, 2)
        monkeypatch.undo()
        assert verification._pool is None
        assert workers and all(reaped(pid) for pid in workers)

    def test_an_error_that_does_not_unpickle_names_its_type_and_message(self):
        with pytest.raises(RuntimeError) as caught:
            verification._run_points("t", "g", range(8), fails_with_exchange_violation, 2)
        assert type(caught.value) is RuntimeError
        assert str(caught.value) == (
            "ExchangeAxiomViolation: exchange axiom fails: removing 1 from {1, 2} "
            "admits no replacement from {3, 4}"
        )
        assert verification._pool is None

    def test_dropping_the_pool_leaves_no_resource_warning(self):
        verification._run_points("t", "g", range(8), holds, 2)
        workers = list(verification._pool.pids)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verification._drop_pool()
            gc.collect()
        assert verification._pool is None
        assert workers and all(reaped(pid) for pid in workers)


class TestSymmetryPoints:
    GRID = dict(a_max=3, b_max=3, i_max=2, cell_max=8)

    def test_one_point_per_mirror_pair(self, monkeypatch):
        # a checker that fails everywhere records every point it was given
        monkeypatch.setattr(verification, "_symmetry_point", lambda point: False)
        for grid, want in ((self.GRID, 20), ({}, 104)):
            points = verification.sweep_symmetry(**grid, jobs=1).failures
            assert len(points) == len(set(points)) == want
            assert all(a <= b for a, _, b in points)
            shapes = verification.shape_grid(**grid)
            assert set(points) <= set(shapes)
            for a, i, b in shapes:
                assert sum(p in points for p in {(a, i, b), (b, i, a)}) == 1

    @pytest.mark.parametrize("wrong_when", [lambda a, b: a > b, lambda a, b: a < b])
    def test_both_orientations_are_checked(self, monkeypatch, wrong_when):
        # a rotation that forgets to reverse the entries, on one side only
        original = verification.involution_rotate

        def rotate(f):
            image = original(f)
            if wrong_when(f.shape.a, f.shape.b):
                return type(image)(image.shape, image.entries[::-1])
            return image

        monkeypatch.setattr(verification, "involution_rotate", rotate)
        report = verification.sweep_symmetry(**self.GRID, jobs=1)
        assert not report.passed
        monkeypatch.setattr(verification, "involution_rotate", original)
        assert verification.sweep_symmetry(**self.GRID, jobs=1).passed

    def test_the_sweep_guards_each_rotation_kernel(self, monkeypatch):
        # the kernel for 9 entries reverses them but skips the complement, so
        # exactly the rotated shapes with 9 cells fail
        grid = dict(a_max=6, b_max=6, i_max=4, cell_max=10)
        monkeypatch.setitem(tableaux._KERNELS, 9, lambda e: e[::-1])
        report = verification.sweep_symmetry(**grid, jobs=1)
        rotated = {
            (min(a, b), i, max(a, b))
            for a, i, b in verification.shape_grid(**grid)
            if a >= 2 and b >= 2 and a + 2 * i + b - 2 == 9
        }
        assert rotated and sorted(report.failures) == sorted(rotated)
        monkeypatch.undo()
        assert verification.sweep_symmetry(**grid, jobs=1).passed


class TestPoolSize:
    # Building the pool forks nothing; only its first sweep does.
    @pytest.mark.parametrize("cores, jobs, want", [(1, 2, 1), (2, 3, 2), (4, 3, 3)])
    def test_forks_at_most_the_usable_cores(self, monkeypatch, cores, jobs, want):
        verification._drop_pool()
        monkeypatch.setattr(verification, "default_jobs", lambda: cores)
        try:
            pool = verification._shared_pool(jobs)
            assert pool.size == want and pool.pids == []
            assert verification._run_points("t", "g", range(8), holds, jobs).passed
            assert verification._pool is pool and len(pool.pids) == want
        finally:
            verification._drop_pool()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads open files in /proc")
    def test_each_worker_holds_only_its_own_pipes(self, monkeypatch):
        # a worker that kept an earlier worker's task pipe would keep it from
        # seeing its end when the parent goes
        verification._drop_pool()
        monkeypatch.setattr(verification, "default_jobs", lambda: 3)
        try:
            verification._run_points("t", "g", range(8), holds, 3)
            pool = verification._pool
            pipes = [{os.fstat(fd).st_ino for fd in ends} for ends in zip(pool._tasks, pool._results)]
            every = set().union(*pipes)
            for pid, own in zip(pool.pids, pipes):
                fds = os.listdir(f"/proc/{pid}/fd")
                assert {os.stat(f"/proc/{pid}/fd/{fd}").st_ino for fd in fds} & every == own
        finally:
            verification._drop_pool()

    def test_without_fork_every_sweep_runs_inline(self, monkeypatch):
        verification._drop_pool()
        monkeypatch.delattr(os, "fork")
        fanned = verification.sweep_theorem2(6, jobs=2)
        assert verification._pool is None
        assert fanned.passed and fanned == verification.sweep_theorem2(6, jobs=1)


class TestDefaultJobs:
    def test_counts_the_cores_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert verification.default_jobs() == 3

    @pytest.mark.parametrize("count, want", [(7, 7), (None, 1)])
    def test_falls_back_to_the_cpu_count(self, monkeypatch, count, want):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert verification.default_jobs() == want
