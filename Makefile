.PHONY: all build test check bench data numa secure figs-gate fsck races clean

all: build

build:
	dune build

test: build
	dune runtest

# Full gate: build + unit/property/differential tests (five POSIX-suite
# passes: default, striped, log-ring, range, and the benchmark's secure
# full-feature configuration) + the benchmark's own tests (its remount
# and durability replay) + a quick smoke run of the region data-path
# microbenchmark, the bounded crash-image explorer / media-fault /
# checker experiment (including the log-ring rename machines and the
# crash-during-recovery re-entrancy machines), the metadata-scalability
# sweep with the 7d log-ring curve, the data-path scaling + open-loop
# experiment, the parallel mark-and-sweep recovery figure, the
# multi-region NUMA bandwidth figure and the security-plane overhead
# sweep with its <=15% protected-path gate, plus the schedule-exploration
# / race-detection and offline-fsck self-checks (both of which now also
# gate parallel recovery) and the published-figure digest gate.  The
# smoke run exports into _build/bench-smoke, never over the committed
# BENCH_*.json; every file it writes and every committed one must carry
# the one bench schema.
SMOKE := _build/bench-smoke
check: test races fsck figs-gate
	dune build @simbench/test/bench-test
	rm -rf $(SMOKE)
	dune exec bench/main.exe -- --json $(SMOKE) --scale 0.05 region crash scale data recovery numa secure
	@bad=; for f in $(SMOKE)/BENCH_*.json BENCH_*.json; do \
	  grep -q '"schema": "simurgh-bench-v1"' "$$f" || bad="$$bad $$f"; \
	done; \
	if [ -n "$$bad" ]; then echo "check: not simurgh-bench-v1:$$bad"; exit 1; fi

# Data-path scaling: whole-file lock vs byte-range locking on one shared
# file, plus open-loop tail latency (refreshes BENCH_data.json).
data: build
	dune exec bench/main.exe -- --json . data

# Multi-region NVMM: aggregate bandwidth vs region count plus the
# cross-socket latency surcharge (refreshes BENCH_numa.json).
numa: build
	dune exec bench/main.exe -- --json . numa

# Security plane: plain vs protected entry vs full per-user enforcement
# across FxMark at 1-40 threads, with the <=15% overhead gate on 7a
# (refreshes BENCH_secure.json).
secure: build
	dune exec bench/main.exe -- --json . secure

# The security plane must not move a single byte of the published
# figures when the permission flag is off: the deterministic
# virtual-time outputs of fig7a/e/f, fig9, fig10 and tab1 are hashed
# and compared against the committed digest (FIGS.sha256).
figs-gate: build
	dune exec bench/main.exe -- --scale 0.05 fig7a fig7e fig7f fig9 fig10 tab1 \
	  | sha256sum | cut -d' ' -f1 | diff FIGS.sha256 - \
	  || (echo "figs-gate: published figures diverged from FIGS.sha256" && exit 1)

# Offline fsck-style self-check: the checker must pass a correctly
# recovered crash image (legacy and log-ring media) and flag both
# deliberately mis-recovered ones — skipped log resolution AND a
# broken parallel sweep (dropped mark shard).
fsck: build
	dune exec bench/main.exe -- --check

# Schedule-exploration + race-detection self-check: every default FS
# state machine must be schedule-invariant, fsck-clean and race-free
# under explored interleavings; parallel (fiber-mode) recovery must be
# schedule-independent under the same bar; and the detector's negative
# control (unlocked racing stores) must fire.
races: build
	dune exec bench/main.exe -- --scale 0.2 --races

# Region data-path microbenchmark (refreshes BENCH_region.json).
bench: build
	dune exec bench/main.exe -- --json . region

clean:
	dune clean
