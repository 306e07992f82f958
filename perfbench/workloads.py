"""The four cdii benchmark workloads: inputs, one operation, and its checks.

Every workload is described by a cdii config file generated from the
workload seed.  The seed enters only through that file: it moves the
phantom centre by at most ``CENTRE_JITTER`` in each coordinate and, where
there is noise, becomes ``noise.seed``.  Seed 0 keeps the centre at
(0.5, 0.5) and noise seed 0, so ``pipeline-90`` with seed 0 is exactly the
acceptance configuration (criterion 8).  The jitter is kept below a
quarter of the 90-node grid spacing: larger shifts change the iteration
count and the calibrated error by tens of percent, which would make the
seeds different workloads rather than samples of one.

An operation drives cdii only through ``cdii.cli.main`` or, for
``recon-tight-60``, the library calls of the README example.  It fails on
an unexpected exit code, a missing output file or a failed check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cdii
import cdii.cli
import cdii.csvio

#: Largest shift of the phantom centre a seed applies, per coordinate.
CENTRE_JITTER = 0.003

#: Calibrated relative L2 error a reconstruction workload must reach.
MAX_RELATIVE_L2 = 0.05

#: Electrode flux must recover the injected current to this share of the
#: largest current (acceptance criterion 2).
FLUX_TOL = 1e-8

#: Electrode voltages must sum to zero to this share of the largest one
#: (``cdii.fem_cem.ZERO_SUM_TOL``).
ZERO_SUM_TOL = 1e-12


class CheckFailed(Exception):
    """An operation's output broke the benchmark's correctness contract."""


@dataclass(frozen=True)
class Spec:
    kind: str  # pipeline | library | forward | staged
    side_nodes: int
    delta: float
    noise_level: float
    # Smoke runs (``run.py --smoke``) use a tiny mesh; recon-tight-60 also
    # loosens delta there, as 1e-9 takes hundreds of iterations at 20x20.
    smoke_side_nodes: int
    smoke_delta: float


#: The workloads; why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "pipeline-90": Spec("pipeline", 90, 1e-7, 0.0, 20, 1e-7),
    "recon-tight-60": Spec("library", 60, 1e-9, 0.0, 20, 1e-8),
    # cdii forward is sized 180x180, not 360x360: at 360 a run of 20 s holds
    # only three or four operations, and on a shared host their median
    # varied by 25-40% between runs.
    "forward-180": Spec("forward", 180, 1e-7, 0.0, 24, 1e-7),
    "staged-noisy-90": Spec("staged", 90, 2e-6, 0.01, 20, 2e-6),
}

#: Files each CLI workload must leave in its output directory.
EXPECTED_FILES = {
    "pipeline": ("sigma_true.csv", "a.csv", "trace.csv", "sigma_v.csv", "v.csv",
                 "V.csv", "convergence.csv", "phi.csv", "sigma_final.csv",
                 "metrics.csv"),
    "forward": ("u.csv", "U.csv", "J.csv", "a.csv"),
    "staged": ("sigma_true.csv", "a.csv", "trace.csv", "sigma_v.csv", "v.csv",
               "V.csv", "convergence.csv", "phi.csv", "sigma_final.csv"),
    "library": (),
}


def phantom_centre(seed: int) -> tuple[float, float]:
    if seed == 0:
        return (0.5, 0.5)
    dx, dy = np.random.default_rng(seed).uniform(-CENTRE_JITTER, CENTRE_JITTER, 2)
    return (0.5 + float(dx), 0.5 + float(dy))


def config_text(spec: Spec, seed: int, smoke: bool, out_dir: Path) -> str:
    """The cdii config of one workload and seed (acceptance electrodes)."""
    n, delta = (spec.smoke_side_nodes, spec.smoke_delta) if smoke \
        else (spec.side_nodes, spec.delta)
    cx, cy = phantom_centre(seed)
    lines = [
        f"mesh.side_nodes={n}",
        "electrodes[0].side=bottom",
        "electrodes[0].interval=0,1",
        "electrodes[0].z=0.0083",
        "electrodes[1].side=top",
        "electrodes[1].interval=0,1",
        "electrodes[1].z=0.0083",
        "currents=-0.003,0.003",
        "recon.epsilon=0.1",
        f"recon.delta={delta!r}",
        "recon.max_iter=500",
        f"phantom.center={cx!r},{cy!r}",
        "phantom.amplitude=0.8",
        "phantom.width=0.02",
        "gamma.side=right",
        f"noise.level={spec.noise_level!r}",
        f"noise.seed={seed}",
        f"output.dir={out_dir}",
    ]
    return "\n".join(lines) + "\n"


def relative_l2(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Area-weighted relative L2 distance on a uniform mesh (equal areas)."""
    diff = np.asarray(candidate) - np.asarray(reference)
    return float(np.sqrt(np.sum(diff ** 2) / np.sum(np.asarray(reference) ** 2)))


def problem(cfg, side_nodes: int):
    """Mesh, electrodes, currents and phantom of a config, as in the README
    example, on a mesh of ``side_nodes`` per side."""
    mesh = cdii.build_uniform_mesh(side_nodes)
    setup = cdii.locate_electrodes(
        mesh, [(e.side, (e.lo, e.hi)) for e in cfg.electrodes],
        [e.z for e in cfg.electrodes])
    currents = cdii.CurrentPattern(np.array(cfg.currents))
    sigma = cdii.gaussian_phantom(mesh, cfg.phantom_center,
                                  cfg.phantom_amplitude, cfg.phantom_width)
    return mesh, setup, currents, sigma


def _values(path: Path) -> np.ndarray:
    return cdii.csvio.read_field(path)[2]


class Workload:
    """One workload at one seed: ``run`` is the timed operation, ``digest``
    fingerprints its outputs, ``check`` verifies one output in full."""

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: Path):
        self.spec = WORKLOADS[name]
        self.config_path = work_dir / "workload.cfg"
        self.config_path.write_text(config_text(self.spec, seed, smoke, work_dir))
        self.cfg = cdii.load_config(self.config_path)

    # -- the operation ----------------------------------------------------

    def run(self, out_dir: Path):
        """One operation; returns in-memory outputs for the library path."""
        kind = self.spec.kind
        if kind == "library":
            return self._library()
        commands = {"pipeline": ["pipeline"], "forward": ["forward"],
                    "staged": ["simulate", "reconstruct", "calibrate"]}[kind]
        for command in commands:
            code = cdii.cli.main([command, "--config", str(self.config_path),
                                  "--out", str(out_dir), "--quiet"])
            if code != 0:
                raise CheckFailed(f"cdii {command} exited with {code}, expected 0")
        return None

    def _library(self):
        cfg = self.cfg
        mesh, setup, currents, sigma_true = problem(cfg, cfg.side_nodes)
        data, trace, _ = cdii.simulate_data(mesh, sigma_true, setup, currents)
        result = cdii.reconstruct(mesh, data, setup, currents,
                                  cdii.ReconstructionConfig(epsilon=cfg.epsilon,
                                                            delta=cfg.delta))
        phi = cdii.build_monotone_map(cdii.collect_pairs(mesh, setup, result, trace))
        sigma = cdii.apply_calibration(mesh, result, phi)
        return sigma_true.values, sigma.values, result.converged, result.iterations

    # -- checks -----------------------------------------------------------

    def digest(self, out_dir: Path, outputs) -> str:
        """Fingerprint of everything an operation produced.

        Identical config and seed must give byte-identical files, except
        the wall-time column of convergence.csv, which is left out.
        """
        h = hashlib.sha256()
        if outputs is not None:
            sigma_true, sigma, converged, iterations = outputs
            h.update(np.ascontiguousarray(sigma).tobytes())
            h.update(f"{converged},{iterations}".encode())
            return h.hexdigest()
        for name in EXPECTED_FILES[self.spec.kind]:
            path = out_dir / name
            if not path.is_file():
                raise CheckFailed(f"missing output {name}")
            data = path.read_bytes()
            if name == "convergence.csv":
                data = b"\n".join(line.rsplit(b",", 1)[0]
                                  for line in data.splitlines())
            h.update(name.encode() + b"\0" + data + b"\0")
        return h.hexdigest()

    def check(self, out_dir: Path, outputs) -> float:
        """Full correctness check of one operation's outputs, once
        ``digest`` has found every expected file.

        Returns the workload's accuracy figure: the calibrated relative L2
        error for the three reconstruction workloads; for ``forward-180``
        the relative L2 distance between its current-density magnitude and
        that of the same problem on a 4x coarser mesh.
        """
        kind = self.spec.kind
        if kind == "library":
            sigma_true, sigma, converged, _ = outputs
            return self._accuracy(converged, relative_l2(sigma_true, sigma))
        if kind == "pipeline":
            metrics = cdii.csvio.read_metrics(out_dir / "metrics.csv")
            return self._accuracy(metrics["converged"] == 1.0, metrics["relative_l2"])
        if kind == "staged":
            # cdii reconstruct exits 0 only when it converged, and run()
            # fails the operation on any other exit code.
            return self._accuracy(True,
                                  relative_l2(_values(out_dir / "sigma_true.csv"),
                                              _values(out_dir / "sigma_final.csv")))
        return self._check_forward(out_dir)

    @staticmethod
    def _accuracy(converged: bool, rel: float) -> float:
        if not converged:
            raise CheckFailed("reconstruction did not converge")
        if not rel <= MAX_RELATIVE_L2:
            raise CheckFailed(f"relative_l2 {rel:.4g} exceeds {MAX_RELATIVE_L2}")
        return rel

    def _check_forward(self, out_dir: Path) -> float:
        mesh, setup, currents, _ = problem(self.cfg, self.cfg.side_nodes)
        u, U = _values(out_dir / "u.csv"), np.atleast_1d(_values(out_dir / "U.csv"))
        a = _values(out_dir / "a.csv")
        if u.shape != (mesh.node_count,) or U.shape != (setup.count,) \
                or a.shape != (mesh.triangle_count,):
            raise CheckFailed("forward outputs do not match the mesh")
        if abs(U.sum()) > ZERO_SUM_TOL * np.max(np.abs(U)):
            raise CheckFailed(f"electrode voltages sum to {U.sum():.3e}")
        solution = cdii.ForwardSolution(u=u, U=U,
                                        grad_u=cdii.triangle_gradients(mesh, u))
        scale = np.max(np.abs(currents.values))
        for k in range(setup.count):
            flux = cdii.electrode_flux(mesh, setup, solution, k)
            if abs(flux - currents.values[k]) > FLUX_TOL * scale:
                raise CheckFailed(f"electrode {k} carries {flux:.6e} A, "
                                  f"injected {currents.values[k]:.6e} A")
        return relative_l2(a, self._coarse_magnitude(mesh))

    def _coarse_magnitude(self, fine: cdii.Mesh) -> np.ndarray:
        """Current-density magnitude of the 4x coarser problem, sampled at
        the fine mesh's triangle centroids."""
        nc = (self.cfg.side_nodes - 1) // 4 + 1
        mesh, setup, currents, sigma = problem(self.cfg, nc)
        sol = cdii.solve_forward(mesh, sigma, setup, currents)
        _, a = cdii.interior_current(mesh, sigma, sol)
        # Coarse cell (i, j) holds triangles 2*(j*(nc-1)+i) (lower, below the
        # SE-NW diagonal) and that plus one (upper).
        c = cdii.centroids(fine) * (nc - 1)
        i = np.minimum(c[:, 0].astype(int), nc - 2)
        j = np.minimum(c[:, 1].astype(int), nc - 2)
        upper = (c[:, 0] - i) + (c[:, 1] - j) > 1.0
        return a[2 * (j * (nc - 1) + i) + upper]
