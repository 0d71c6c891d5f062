"""One benchmark sample, run in a fresh single-threaded process.

    python3 child.py '<json job>'

The job names a mode ("setup" or "roundtrip"), the parent's CLOCK_MONOTONIC
reading taken just before it started this process, and for a round trip
the two config files, the output directory, the verify seed and whether
to trace.  The last line of stdout is a JSON object with the measurements.
"""

import json
import resource
import sys
import time


def monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so the parent's reading
    # before the spawn and ours after set-up measure one interval
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(job):
    import ifpt
    from ifpt import cli, config

    config.load_config(job["calibrate_config"])
    result = {"setup_s": monotonic() - job["spawned_at"], "ifpt_file": ifpt.__file__}
    if job["mode"] == "setup":
        import numpy
        import scipy

        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
        return result

    calibrate_argv = ["calibrate", "-c", job["calibrate_config"], "-o", job["out"], "--threads", "1"]
    verify_argv = ["verify", "-c", job["verify_config"], "-o", job["out"],
                   "--seed", str(job["verify_seed"]), "--threads", "1"]
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["rc_calibrate"], layers = tracer.run_phase("calibrate", cli.main, calibrate_argv)
        result["rc_verify"], verify_layers = tracer.run_phase("verify", cli.main, verify_argv)
        layers.update(verify_layers)
        result["layers"] = layers
        result["calibrate_s"] = layers["cli.wall_s.calibrate"]
        result["verify_s"] = layers["cli.wall_s.verify"]
    else:
        t0 = time.perf_counter()
        result["rc_calibrate"] = cli.main(calibrate_argv)
        t1 = time.perf_counter()
        result["rc_verify"] = cli.main(verify_argv)
        t2 = time.perf_counter()
        result["calibrate_s"] = t1 - t0
        result["verify_s"] = t2 - t1
    # Linux reports ru_maxrss in KiB
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
