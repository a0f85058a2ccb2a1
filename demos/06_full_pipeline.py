"""The whole translation in one call, plus its file outputs.

run_pipeline chains everything: damping sweep, harmonic families, bound
construction in the requested mode, and a round-trip simulation of both
bounds. emit writes the deterministic text artifacts a design session
would keep. The same run is available from the shell as
`trackbounds --mp 0.15 --tr 5 --ts 30 --dev 0.03 --wi 5 --mode envelope`.
"""

import tempfile

from trackbounds import Spec, emit, format_summary, run_pipeline

spec = Spec(mp=0.15, tr=5.0, ts=30.0, dev=0.03, wi=5)

result = run_pipeline(spec, mode="envelope")
print(format_summary(result), end="")

with tempfile.TemporaryDirectory(prefix="trackbounds_demo_") as out_dir:
    written = emit(result, out_dir)
    print(f"\nartifacts written to {out_dir} (removed on exit):")
    for path in written:
        print(f"  {path}")
