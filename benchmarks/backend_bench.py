"""Compare the numba backend against the pure-numpy fallback.

Runs the same fixed campaign in two fresh interpreters (the backend is
chosen at import time from TOPM_DISABLE_NUMBA), reports wall time and
throughput for each, and verifies the two backends produced identical
results.  Without numba the first interpreter already runs the numpy
backend; the script then reports that one run and exits 0.

    python3 benchmarks/backend_bench.py --trials 40
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import textwrap

PROBE = textwrap.dedent("""
    import hashlib, json, sys, time
    from topm._jit import active_backend
    from topm.engine import preset, run_trial
    from topm.instances import make_classic_instance

    trials, K, omega, seed = json.loads(sys.argv[1])
    inst = make_classic_instance(K, 2, omega, sigma=0.5)
    digest = hashlib.blake2b(digest_size=16)
    # warm both algorithm paths so jit compilation / cache loading stays
    # outside the timed region
    for name in ("m-lingape", "lingifa"):
        run_trial(preset(name), inst, 2, 0.0, 0.05, seed=(seed + 1, 0), lam=0.025)
    rounds = 0
    start = time.perf_counter()
    for name in ("m-lingape", "lingifa"):
        spec = preset(name)
        for i in range(trials):
            r = run_trial(spec, inst, 2, 0.0, 0.05, seed=(seed, i), lam=0.025)
            rounds += r.tau
            digest.update(repr((name, i, r.tau, r.recommendation)).encode())
            digest.update(r.counts.tobytes())
    elapsed = time.perf_counter() - start
    print(json.dumps({
        "backend": active_backend(),
        "elapsed": elapsed,
        "rounds": rounds,
        "digest": digest.hexdigest(),
    }))
""")


def run_probe(args, disable_numba):
    env = dict(os.environ)
    env.pop("TOPM_DISABLE_NUMBA", None)
    if disable_numba:
        env["TOPM_DISABLE_NUMBA"] = "1"
    payload = json.dumps([args.trials, args.K, args.omega, args.seed])
    proc = subprocess.run([sys.executable, "-c", PROBE, payload], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(1)
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=40,
                    help="trials per algorithm (two algorithms run)")
    ap.add_argument("--K", type=int, default=4)
    ap.add_argument("--omega", type=float, default=0.5236,
                    help="classic-instance angle; smaller means harder")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sides = {}
    for disable in (False, True):
        side = run_probe(args, disable)
        sides[side["backend"]] = side
        print(f"{side['backend']:>6}: {side['elapsed']:8.3f}s "
              f"({side['rounds'] / side['elapsed']:10.0f} rounds/s, "
              f"{side['rounds']} rounds)")
        if side["backend"] != "numba":
            break
    if "numba" not in sides:
        print("numba is not installed: only the numpy backend ran, "
              "nothing to compare")
        return 0
    numba, numpy_ = sides["numba"], sides["numpy"]
    print(f"speedup: {numpy_['elapsed'] / numba['elapsed']:.1f}x "
          f"(numba over numpy)")
    if numba["digest"] == numpy_["digest"]:
        print("results: identical")
        return 0
    print("results: MISMATCH")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
