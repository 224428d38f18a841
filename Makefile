.PHONY: all test fmt smoke ci clean bench-json bench-gate fig8 farm farm-big profile fuzz-deep cache-clean

# Default on-disk binary store used by `cgra_tool compile/cache --cache`
# unless a different directory is passed.
CGRA_CACHE ?= .cgra-cache

all:
	dune build

test:
	dune runtest

# dune-file formatting only: the dependency contract excludes the
# ocamlformat binary, so (formatting (enabled_for dune)) scopes @fmt to
# what dune formats natively.
fmt:
	dune build @fmt

# End-to-end smoke: a traced Multi/Single run in both export formats
# (self-validated by the trace command), the fuzz harnesses, and the
# bench gate's check of all five committed baselines.
smoke:
	dune build @smoke

ci: all fmt test smoke

# Regenerate the five committed perf baselines at the repo root.  Every
# row states its own gate ("better", "kind", "bound").  BENCH_micro
# rows carry a per-row "domains" field: the sequential rows are
# single-domain per-call latencies, and the "(paged, -j 4)" rows time the
# same compiles with each II level of the scheduler ladder raced across a
# 4-domain pool (clamped to physical cores).  BENCH_fig9 uses every core, so compare
# wall-clock only across hosts with the same CGRA_DOMAINS.
bench-json:
	dune build bench/main.exe
	dune exec bench/main.exe -- micro --json
	CGRA_DOMAINS=$$(nproc) dune exec bench/main.exe -- fig9 --json
	CGRA_DOMAINS=$$(nproc) dune exec bench/main.exe -- fig8 --json
	CGRA_DOMAINS=$$(nproc) dune exec bench/main.exe -- farm --json
	CGRA_DOMAINS=$$(nproc) dune exec bench/main.exe -- farm-big --json

# One-shot Fig. 8 regeneration: print every (fabric, page size) table
# and rewrite the gated BENCH_fig8.json quality rows (the per-fabric
# 4-PE-page geomeans; deterministic at seed 0, byte-identical at any -j).
fig8:
	dune build bench/main.exe
	CGRA_DOMAINS=$$(nproc) dune exec bench/main.exe -- fig8 --json

# Regenerate the farm serving load curve and rewrite the gated
# BENCH_farm.json rows (req/kcycle and latency quantiles at each
# offered load; deterministic at seed 0, byte-identical at any -j),
# then prove the fresh rows still gate against the committed baseline.
farm:
	dune build bench/main.exe
	CGRA_DOMAINS=$$(nproc) dune exec bench/main.exe -- farm --json
	dune exec bench/main.exe -- gate --check

# The at-scale harness: 24 mixed shards, 8 tenants, 10^4 requests
# through the sequential event-loop coordinator.  Rewrites
# BENCH_farm_big.json: quality rows at nominal load, the
# least-loaded/cost-aware overload pair, and the front-end simulation
# rate (requests per wall-second).  `gate --check` then validates all
# five committed baselines, this one included.
farm-big:
	dune build bench/main.exe
	CGRA_DOMAINS=$$(nproc) dune exec bench/main.exe -- farm-big --json
	dune exec bench/main.exe -- gate --check

# Re-measure all five bench families, the at-scale fleet included, and
# compare each row against its committed baseline within the bound the
# row states; non-zero exit on any regression.  `gate --check` (run by
# @smoke and runtest) only re-validates the committed files against
# themselves.
bench-gate:
	dune build bench/main.exe
	dune exec bench/main.exe -- gate

# A profiled 16-thread Multi-mode run on the default 4x4: occupancy heatmap,
# row-bus contention, stall attribution, reshape accounting, latency
# quantiles.  Pass a JSONL trace through cgra_tool directly for
# post-hoc analysis: `cgra_tool profile trace.jsonl [--json]`.
profile:
	dune build bin/cgra_tool.exe
	dune exec bin/cgra_tool.exe -- profile --mode multi --threads 16

# Long fuzz across all cores: the corpus that caught the absolute-page
# indexing bugs, two orders of magnitude deeper than the @smoke run.
fuzz-deep:
	dune build bin/cgra_tool.exe
	CGRA_DOMAINS=$$(nproc) dune exec bin/cgra_tool.exe -- fuzz pipeline 10000
	CGRA_DOMAINS=$$(nproc) dune exec bin/cgra_tool.exe -- fuzz os 10000
	CGRA_DOMAINS=$$(nproc) dune exec bin/cgra_tool.exe -- fuzz meld 10000
	CGRA_DOMAINS=$$(nproc) dune exec bin/cgra_tool.exe -- fuzz farm 500

# Drop stale/corrupt artifacts from the binary store, then report what
# survives.  `rm -rf $(CGRA_CACHE)` is the nuclear version.
cache-clean:
	dune build bin/cgra_tool.exe
	dune exec bin/cgra_tool.exe -- cache gc --cache $(CGRA_CACHE)
	dune exec bin/cgra_tool.exe -- cache stats --cache $(CGRA_CACHE)

clean:
	dune clean
