import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from klmatroids import matroid as matroid_module
from klmatroids import verification
from klmatroids.closedforms import RhoUniformParams, build_rho_uniform
from klmatroids.exactarith import IntPoly
from klmatroids.identities import IdentityReport
from klmatroids.matroid import clear_caches, kl_poly_recurrence, uniform_matroid
from klmatroids.verification import kl_defining_equation_holds


@pytest.fixture
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


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
        clear_caches()
        assert kl_defining_equation_holds(matroid)


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
        workers = set(pool._processes)
        verification.sweep_charpoly(6, jobs=2)
        assert verification._pool is pool and set(pool._processes) == workers

    def test_other_worker_counts_replace_the_pool(self, monkeypatch):
        # the pool is kept per worker count, min(jobs, default_jobs())
        grid = dict(a_max=3, b_max=3, i_max=2, cell_max=8)
        verification._drop_pool()
        monkeypatch.setattr(verification, "default_jobs", lambda: 2)
        try:
            assert verification.sweep_counting(**grid, jobs=2).passed
            old = verification._pool
            workers = set(old._processes)
            assert verification.sweep_counting(**grid, jobs=3).passed
            assert verification._pool is old and set(old._processes) == workers
            monkeypatch.setattr(verification, "default_jobs", lambda: 1)
            assert verification.sweep_counting(**grid, jobs=3).passed
            assert verification._pool is not old and old._shutdown_thread
            assert verification._pool._max_workers == 1
        finally:
            verification._drop_pool()

    def test_killed_worker_breaks_one_sweep_only(self):
        verification.sweep_theorem2(6, jobs=2)
        pool = verification._pool
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        # the pool's manager thread marks it broken, then ends; a sweep that
        # raced ahead of it could still be served by the surviving worker
        pool._executor_manager_thread.join(timeout=30)
        assert not pool._executor_manager_thread.is_alive()
        with pytest.raises(BrokenProcessPool):
            verification.sweep_theorem2(6, jobs=2)
        assert verification._pool is None
        again = verification.sweep_theorem2(6, jobs=2)
        assert again.passed and again.points > 1
        assert verification._pool is not None and verification._pool is not pool


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


class TestPoolSize:
    # Building the executor forks nothing; only its first task would.
    @pytest.mark.parametrize("cores, jobs, want", [(1, 2, 1), (2, 3, 2), (4, 3, 3)])
    def test_forks_at_most_the_usable_cores(self, monkeypatch, cores, jobs, want):
        verification._drop_pool()
        monkeypatch.setattr(verification, "default_jobs", lambda: cores)
        try:
            assert verification._shared_pool(jobs)._max_workers == want
            assert not verification._pool._processes
        finally:
            verification._drop_pool()


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
