"""One benchmark process: a set-up probe, an untraced pass or a traced pass.

    python3 child.py setup                  import geodenums, print the clock and 5 probe times
    python3 child.py pass  SPEC.json OUT.json
    python3 child.py trace SPEC.json OUT.json

``run.py`` starts every pass in a fresh process so the package's caches
start cold, and reads OUT.json when the process has ended.  An untraced
pass runs under ``speed.Sampler`` and reports its probe times, with their
time taken out of its ``wall_s``.  The traced
pass replays each request's kernel calls bottom-up under spans before the
request itself runs, so a layer's tables are built, and timed, before the
layer above reads them.
"""

import sys
import time


def _setup() -> None:
    import geodenums.cli  # noqa: F401

    done = time.monotonic_ns()
    from speed import probe

    print(done, *(probe() for _ in range(5)))


def _call(cli, argv: list[str]) -> int:
    """geodenums.cli.main with its stdout discarded; usage errors and
    crashes become exit codes, as they would for a user."""
    import contextlib
    import io
    import traceback

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the pass goes on; the failed call is counted
        traceback.print_exc()
        return 1


class Replay:
    """Bench-side calls into each layer, one span per call.

    Only ``hypercat.solve`` and ``geode.series`` are work the workload does
    itself (built here ahead of the request that needs them, and found in
    the package's cache by that request).  Every other span is extra work
    that measures a layer and checks its result exactly; failures are
    collected, not raised.
    """

    def __init__(self, tracer) -> None:
        import geodenums

        self.g = geodenums
        self.tr = tracer
        self.solved: set = set()
        self.geodes: set = set()
        self.terms = 0
        self.max_coeff_bits = 0
        self.mult_vectors = 0
        self.failures: list[str] = []

    def _expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def run(self, item: tuple) -> None:
        kind, *args = item
        getattr(self, kind)(*args)

    def solve(self, r: int, degree: int):
        g, tr = self.g, self.tr
        with tr.span("hypercat.solve", r=r, degree=degree):
            s = g.solve_S(r, degree)
        if (r, degree) in self.solved:
            return s
        self.solved.add((r, degree))
        self.terms += len(s.terms)
        self.max_coeff_bits = max([self.max_coeff_bits] + [abs(c).bit_length() for c in s.terms.values()])
        with tr.span("mpoly.mul", extra=True, r=r, degree=degree):
            g.mul(s, s)
        with tr.span("hypercat.residual", extra=True, r=r, degree=degree):
            self._expect(g.functional_residual(s).is_zero(), f"residual r={r} D={degree}")
        return s

    def geode(self, r: int, degree: int) -> None:
        g, tr = self.g, self.tr
        s = self.solve(r, degree + 1)
        fresh = (r, degree) not in self.geodes
        if fresh:
            self.geodes.add((r, degree))
            numerator = g.sub(s, g.constant_series(r, degree + 1, 1))
            with tr.span("mpoly.divide", extra=True, r=r, degree=degree):
                q = g.divide_exact_by_s1(numerator)
            with tr.span("mpoly.divide_check", extra=True, r=r, degree=degree):
                lifted = g.TruncatedSeries(r, degree + 1, dict(q.terms))
                self._expect(g.mul(g.s1_series(r, degree + 1), lifted) == numerator,
                             f"division check r={r} D={degree}")
        with tr.span("geode.series", r=r, degree=degree):
            table = g.geode_series(r, degree)
        if not fresh:
            return
        with tr.span("geode.factorization", extra=True, r=r, degree=degree):
            self._expect(table.factorization_holds(), f"factorization r={r} D={degree}")
        weights = tuple(-1 if k % 2 else 1 for k in range(1, r + 1))
        with tr.span("mpoly.substitute", extra=True, r=r, degree=degree):
            g.substitute_signed(table.series, weights)
        with tr.span("mpoly.to_dict", extra=True, r=r, degree=degree):
            g.series_to_dict(table.series)
        if r % 2 == 0:
            self.eval_alt(r // 2, degree)

    def eval_alt(self, a: int, order: int) -> None:
        with self.tr.span("geode.eval", extra=True, a=a, order=order):
            values = self.g.eval_alternating(a, order)
        self._expect(values.coeffs == tuple(a**n for n in range(order + 1)), f"eval_alternating a={a}")

    def eval_gen(self, c: list[int], order: int) -> None:
        a = len(c)
        base = 2 * a * c[-1] - sum(c)
        with self.tr.span("geode.eval", extra=True, c=list(c), order=order):
            values = self.g.eval_general(a, tuple(c), order)
        self._expect(values.coeffs == tuple(base**n for n in range(order + 1)), f"eval_general c={c}")

    def partition_sum_main(self, max_n: int, max_a: int) -> None:
        from workloads import mult_vector_count

        with self.tr.span("identities.partition_sum_main", extra=True, max_n=max_n, max_a=max_a):
            for n in range(1, max_n + 1):
                for a in range(1, max_a + 1):
                    self._expect(self.g.partition_sum_main(n, a) == a ** (n - 1), f"eq31 n={n} a={a}")
                    self.mult_vectors += mult_vector_count(n, 2 * a)

    def claims(self, max_n: int, max_a: int) -> None:
        from workloads import mult_vector_count

        g, tr = self.g, self.tr
        with tr.span("identities.claim_sums", extra=True, max_n=max_n, max_a=max_a):
            for n in range(1, max_n + 1):
                for a in range(1, max_a + 1):
                    for x in range(-2, n + 1):
                        self._expect(g.claim1_sum(n, a, x) == 0, f"claim1 n={n} a={a} x={x}")
                        self._expect(g.claim2_sum(n, a, x) == a ** (n - 1), f"claim2 n={n} a={a} x={x}")
                        self.mult_vectors += mult_vector_count(n, 2 * a) + mult_vector_count(n - 1, 2 * a)
        with tr.span("identities.claim2_ct", extra=True, max_n=max_n, max_a=max_a):
            for n in range(1, max_n + 1):
                for a in range(1, max_a + 1):
                    for x in range(0, n + 1):
                        self._expect(g.claim2_ct(n, a, x) == a ** (n - 1), f"claim2_ct n={n} a={a} x={x}")

    def wz1(self, max_n: int) -> None:
        with self.tr.span("wz.wz1", extra=True, max_n=max_n):
            self._expect(self.g.check_wz1(max_n).all_passed(), f"wz1 n<={max_n}")

    def wz2(self, a: int, max_n: int) -> None:
        with self.tr.span("wz.wz2", extra=True, a=a, max_n=max_n):
            self._expect(self.g.check_wz2(a, max_n).all_passed(), f"wz2 a={a} n<={max_n}")

    def certificate(self, max_n: int) -> None:
        with self.tr.span("wz.certificate", extra=True, max_n=max_n):
            self._expect(self.g.check_certificate_R(max_n).all_passed(), f"certificate n<={max_n}")


def _out_flag(argv: list[str]) -> str:
    return "--report" if argv[0] == "verify" else "--out"


def _untraced_pass(cli, requests, outdir) -> dict:
    calls = []
    start = time.perf_counter()
    for req_id, _, argv, suffix, _ in requests:
        path = f"{outdir}/{req_id}{suffix}"
        t0 = time.perf_counter()
        rc = _call(cli, argv + [_out_flag(argv), path])
        calls.append({"id": req_id, "argv": argv, "path": path, "rc": rc,
                      "wall_s": time.perf_counter() - t0})
    return {"wall_s": time.perf_counter() - start, "calls": calls}


def _traced_pass(cli, requests, outdir) -> dict:
    from tracer import Tracer

    tr = Tracer()
    replay = Replay(tr)
    calls = []
    start = time.perf_counter()
    for req_id, span_name, argv, suffix, plan in requests:
        tr.request = req_id
        with tr.span(span_name):
            for item in plan:
                try:
                    replay.run(item)
                except Exception as exc:  # counted as a failed operation
                    replay.failures.append(f"{item}: {type(exc).__name__}: {exc}")
            path = f"{outdir}/{req_id}{suffix}"
            t0 = time.perf_counter()
            rc = _call(cli, argv + [_out_flag(argv), path])
            calls.append({"id": req_id, "argv": argv, "path": path, "rc": rc,
                          "wall_s": time.perf_counter() - t0})
    return {
        "wall_s": time.perf_counter() - start,
        "calls": calls,
        "spans": tr.spans,
        "stats": {
            "terms": replay.terms,
            "max_coeff_bits": replay.max_coeff_bits,
            "mult_vectors": replay.mult_vectors,
        },
        "failures": replay.failures,
    }


def _pass(mode: str, spec_path: str, out_path: str) -> None:
    import json
    import os
    import resource

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import geodenums
    from geodenums import cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(geodenums.__file__).startswith(src + os.sep):
        sys.exit(f"geodenums imported from {geodenums.__file__}, not from {src}")

    import workloads

    requests = workloads.pass_requests(spec["workload"], spec["seed"], spec["smoke"], mode == "trace")
    if mode == "trace":
        out = _traced_pass(cli, requests, spec["outdir"])
    else:
        from speed import Sampler

        with Sampler() as sampler:
            out = _untraced_pass(cli, requests, spec["outdir"])
        out["wall_s"] -= sampler.inside_s
        out["probes"] = sampler.samples
    info = getattr(geodenums.solve_S, "cache_info", None)
    out["cache"] = info()._asdict() if info else None
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    if sys.argv[1:] == ["setup"]:
        _setup()
    elif len(sys.argv) == 4 and sys.argv[1] in ("pass", "trace"):
        _pass(*sys.argv[1:])
    else:
        sys.exit(__doc__)
