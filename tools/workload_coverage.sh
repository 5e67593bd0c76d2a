#!/usr/bin/env bash
# Workload coverage probe: which src/ functions does no workload run?
#
# Usage:
#   tools/workload_coverage.sh BUILD_DIR
#
# Makes a Debug --coverage build of this checkout in BUILD_DIR, then runs the
# workloads this repo exists for — the CI smoke commands, the table_*/fig5/
# ablation_{nearsampling,runtime} harnesses at 1 run x 12 simulations, and
# sensitivity_report — and no gtest binary. It prints every function defined
# under src/ that none of them entered, one "file:line name" per line, sorted.
#
# A function counts as entered when any translation unit that emitted it ran
# it; the functions of a src/ object that no workload binary links are all
# listed. Inline or template code that no translation unit instantiates has
# no coverage record at all and cannot be listed. Only gcov is needed: the
# per-object reports come from `gcov --json-format`.
set -euo pipefail

build_dir="${1:?usage: tools/workload_coverage.sh BUILD_DIR}"
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"

targets=(quickstart compare_optimizers yield_analysis fault_tolerance maopt_run_deck minispice
         maopt_shell sensitivity_report table_ota table_tia table_ldo table_foldedcascode
         table_baselines fig5_fom_curves ablation_nearsampling ablation_runtime)

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "${build_dir}" -j "${jobs}" --target "${targets[@]}" >/dev/null
build_dir="$(cd "${build_dir}" && pwd)"
find "${build_dir}" -name '*.gcda' -delete

work="${build_dir}/coverage-work"
rm -rf "${work}"
mkdir -p "${work}"
cd "${work}"
ex="${build_dir}/examples"
bn="${build_dir}/bench"
run() {
  echo "+ $*" >&2
  "$@" >/dev/null
}

# The CI smoke commands.
run "${ex}/quickstart" --sims 20 --init 12
run "${ex}/compare_optimizers" --sims 20 --seed 3 --cache-dir cache --jsonl cold.jsonl
run "${ex}/compare_optimizers" --sims 20 --seed 3 --cache-dir cache --warm-start
run "${ex}/yield_analysis" --sims 25 --init 20 --mc 64 --fault-rate 0.3 \
  --policy penalize-failed --threads 8 --jsonl yield.jsonl
run "${ex}/fault_tolerance" --sims 30 --fault-rate 25
run "${ex}/maopt_run_deck" --check "${repo_root}"/decks/*.cir
for deck in "${repo_root}"/decks/*.cir; do run "${ex}/minispice" "${deck}" --op; done
run "${ex}/maopt_run_deck" "${repo_root}/decks/five_transistor_ota.cir" --algo MA-Opt --seed 1 \
  --sims 40 --init 16 --work-dir deck_wd --jsonl deck_jobs.jsonl --run-jsonl deck_run.jsonl
echo "+ maopt_shell <daemon script>" >&2
"${ex}/maopt_shell" --threads 4 --capacity 8 --fault-rate 0.3 --work-dir daemon_wd \
  --jsonl jobs.jsonl >/dev/null <<'EOF'
tenant alice 1
submit steady problem=quad algo=MA-Opt seed=3 sims=40 init=16 ckpt-every=2 &
pause steady
tenant bob 2
submit heavy problem=quad algo=MA-Opt seed=4 sims=30 init=12 &
tenant carol 1
submit flaky problem=quad-faulty algo=Random seed=5 sims=40 init=16 &
wait steady
resume steady
wait heavy
wait flaky
jobs
sched
quit
EOF

# The paper harnesses, 1 run x 12 simulations each.
small=(--runs 1 --sims 12 --init 8)
for h in table_ota table_tia table_ldo table_foldedcascode fig5_fom_curves \
  ablation_nearsampling ablation_runtime; do
  run "${bn}/${h}" "${small[@]}"
done
for c in ota tia; do run "${bn}/table_baselines" --circuit "${c}" "${small[@]}"; done
run "${bn}/ablation_nearsampling" --circuit ota "${small[@]}"
run "${ex}/sensitivity_report"

# One gcov JSON report per object of the src/ libraries. An object that no
# workload binary linked has notes but no counts; gcov reads it as all-zero.
reports="${build_dir}/coverage-json"
rm -rf "${reports}"
mkdir -p "${reports}"
find "${build_dir}/src" -name '*.gcno' -print0 | while IFS= read -r -d '' gcno; do
  (cd "${reports}" && gcov --json-format --demangled-names --preserve-paths \
    --object-directory "$(dirname "${gcno}")" "${gcno}" >/dev/null 2>&1)
done

python3 - "${reports}" "${repo_root}/src" <<'EOF'
import glob, gzip, json, os, sys

reports, src = sys.argv[1], os.path.realpath(sys.argv[2])
hits = {}  # (file, line, name) -> summed execution count over translation units
for path in glob.glob(os.path.join(reports, "*.gcov.json.gz")):
    with gzip.open(path, "rt") as f:
        doc = json.load(f)
    cwd = doc.get("current_working_directory", "")
    for entry in doc["files"]:
        file = os.path.realpath(os.path.join(cwd, entry["file"]))
        if not file.startswith(src + os.sep):
            continue
        rel = os.path.relpath(file, os.path.dirname(src))
        for fn in entry["functions"]:
            key = (rel, fn["start_line"], fn.get("demangled_name", fn["name"]))
            hits[key] = hits.get(key, 0) + fn["execution_count"]
zero = sorted(k for k, n in hits.items() if n == 0)
for rel, line, name in zero:
    print(f"{rel}:{line} {name}")
print(f"# {len(zero)} of {len(hits)} src/ functions never entered", file=sys.stderr)
EOF
