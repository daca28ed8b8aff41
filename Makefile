# Convenience targets; everything here is a thin wrapper over dune.

.PHONY: all build test bench bench-compare bench-accept bench-prop \
	bench-prop-compare bench-prop-accept

all: build

build:
	dune build

test:
	dune runtest

# ---------------------------------------------------------------------
# Snapshot gates
#
# Both gates are the same `pointsto bench compare` invocation (one
# tolerance config: +15% time, +10% peak heap, +25% per census
# component, 0.5s noise floor), parameterized by baseline snapshot;
# each re-measures exactly the baseline's cells and prints the per-cell
# report (time, iterations, peak heap, verdicts).  Override
# tolerances per call with TIME_TOL= / HEAP_TOL= / HEAP_COMPONENT_TOL=
# (percent), e.g. `make bench-compare TIME_TOL=75` on a noisy host.
# HEAP_COMPONENT_TOL gates the per-component census words (points-to
# sets, edge lists, ...) that every snapshot cell carries.
# ---------------------------------------------------------------------

TOLERANCE_FLAGS = $(if $(TIME_TOL),--time-tol $(TIME_TOL)) \
	$(if $(HEAP_TOL),--heap-tol $(HEAP_TOL)) \
	$(if $(HEAP_COMPONENT_TOL),--heap-component-tol $(HEAP_COMPONENT_TOL))

# $(call bench_gate,baseline.json)
define bench_gate
dune exec bin/pointsto.exe -- bench compare --baseline $(1) $(TOLERANCE_FLAGS)
endef

# Full benchmark grid.  Writes table1.csv and a fresh BENCH_table1.json
# snapshot into the repository root.
bench:
	dune exec bin/pointsto.exe -- bench table1

# Gate the current tree against the committed baseline snapshot.
# Exits 4 on a regression.
bench-compare:
	$(call bench_gate,BENCH_table1.json)

# A baseline must come from a committed tree: the binary stamps itself
# dirty when tracked files differ from HEAD, and a dirty number cannot
# be traced back to a commit.  Both -accept targets stop here first, so
# running one after the other without a commit in between refuses.
define require_clean_tree
@if [ -n "$$(git status --porcelain --untracked-files=no)" ]; then \
  echo "$@: tracked files differ from HEAD; commit or stash them before re-blessing a baseline" >&2; \
  exit 1; \
fi
endef

# Re-bless the committed baseline after an intentional performance
# change: rerun the grid, then review and commit BENCH_table1.json.
bench-accept:
	$(require_clean_tree)
	$(MAKE) bench
	@echo "BENCH_table1.json regenerated; review the diff and commit it."

# Propagation micro-benchmark: the cycle-heavy `cyclic` profile across a
# small analysis spread, isolating the solver's propagation core.  Writes
# a fresh BENCH_prop.json snapshot into the repository root.
bench-prop:
	dune exec bin/pointsto.exe -- bench propbench

# Gate the propagation core against its committed baseline — the same
# recipe as bench-compare, restricted to the propagation cells.
bench-prop-compare:
	$(call bench_gate,BENCH_prop.json)

# Re-bless the propagation baseline after an intentional change.
bench-prop-accept:
	$(require_clean_tree)
	$(MAKE) bench-prop
	@echo "BENCH_prop.json regenerated; review the diff and commit it."
