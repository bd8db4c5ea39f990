#!/usr/bin/env bash
# Tier-1 verification, an AddressSanitizer+UndefinedBehaviorSanitizer
# pass over the whole suite, and a ThreadSanitizer pass over the
# concurrent machinery (pipeline executor, thread pool, task engine).
# Run from anywhere; builds land in build/, build-asan/ and build-tsan/.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build + full test suite =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo
echo "== asan+ubsan: full test suite and examples, timing tests excluded =="
# Out-of-bounds and use-after-free reads, undefined arithmetic, and the
# libstdc++ container bound checks (_GLIBCXX_ASSERTIONS). Any report
# aborts its test. The wall-clock-sensitive `timing` tests are skipped:
# instrumentation slows them past their speedup assertions.
cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
examples=()
for src in examples/*.cc; do examples+=("$(basename "${src}" .cc)"); done
cmake --build build-asan --target gal_tests "${examples[@]}" -j "${JOBS}"
(cd build-asan && ctest -LE timing --output-on-failure -j "${JOBS}")

echo
echo "== tsan: pipeline / threadpool / task-engine / tensor-kernel tests =="
cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan --target gal_tests -j "${JOBS}"
# PipelineTest.* covers the two-level k-executor backend (bounded-queue
# handoff, batch-ordered release); CoreBudgetTest.* the stage/kernel core
# partitioning; the DistGcn cases drive the trainer's pipelined replay
# end-to-end under TSan. WorkDequeTest.* races owner pops against
# concurrent thieves on the Chase–Lev deque, TaskEngineTest.* covers the
# lock-free engine (incl. the deep-spawn stress and the eventcount
# parking lot), and MatchDeterminismTest.* drives the DFS matcher's
# adaptive prefix splitting at 8 threads. The cluster suites cover the
# simulated-cluster substrate: TrafficLedgerTest.ConcurrentChargesAreExact
# hammers the sharded ledger counters from 8 threads (the data race the
# old SimulatedNetwork had), and ClusterExchangeTest.* runs the TLAV
# engines at GAL_TASK_THREADS=8 over the exchange channel;
# TlavEngineTest.Mirroring* are the cases that drive the channel's dense
# combine slots with mirrored sends through the engine's worker pool
# (per-worker slot arrays written in compute, reset in parallel
# delivery). The frontier suites run the direction-optimizing
# traversals (push scatter, pull gather over the shared bitmap,
# per-worker counters) across worker counts under TSan — the parity sweep is where a racy frontier merge
# would show up. The reorder/SIMD/compression parity suites
# (GraphReorderTest, ReorderSimdParityTest, IntersectTest, SimdTest,
# CompressedCsrTest) sweep thread and worker counts over the reordered
# and compressed layouts and vector kernels — the per-worker triangle
# tallies, the per-worker decode scratch, and the SIMD dispatch flag are
# the shared state TSan watches there. TrianglesTest.* runs the task
# triangle counter at several thread counts: every task thread reads the
# shared OrientedRows, bumps its own padded tally, and charges the
# cluster ledger concurrently. MniTest.* runs MNI's existence checks from
# ParallelForShards threads, each with its own buffers for the shared
# plan extension step.
./build-tsan/tests/gal_tests \
    --gtest_filter='PipelineTest.*:ThreadPoolTest.*:TaskEngineTest.*:TrianglesTest.*:MniTest.*:WorkDequeTest.*:MatchDeterminismTest.*:KernelContextTest.*:KernelParityTest.*:TensorTest.*:MatrixTest.*:SparseTest.*:CoreBudgetTest.*:TrafficLedgerTest.*:VirtualClockTest.*:ClusterRuntimeTest.*:ExchangeChannelTest.*:ClusterExchangeTest.*:TlavEngineTest.Mirroring*:FrontierBitmapTest.*:SlidingQueueTest.*:VertexFrontierTest.*:Workers/FrontierParityTest.*:FrontierTraversalTest.*:GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*:DistGcnTest.OverlapReducesSimulatedTime:DistGcnTest.ReportExposesTracesAndOverlapOccupancy:DistGcnTest.CommChannelsRelieveCommBoundOverlap'

echo
echo "== ooc: out-of-core shard substrate (ctest label) =="
# The quick gate for src/ooc/ changes: writer/reader roundtrips,
# corrupt-file Status behavior, ShardCache LRU/budget/pin units, and
# the in-memory-vs-out-of-core bit-identity sweeps.
(cd build && ctest -L ooc --output-on-failure -j "${JOBS}")

echo
echo "== tsan: shard-cache suites =="
# The shard cache is the one genuinely concurrent piece of src/ooc/:
# blocking Acquire under a full budget, LRU eviction racing pins, and
# the engines' one-pin-per-thread discipline. The parity suites run the
# three out-of-core engines at 1 and 8 threads, so TSan watches the
# atomic accumulators (fetch_add rank mass, CAS label min, per-thread
# tallies) against concurrent shard loads/evictions.
./build-tsan/tests/gal_tests \
    --gtest_filter='ShardCacheTest.*:OocParityTest.*'

echo
echo "== forced tiny budget: every shard evicted between touches =="
# The out-of-core kill switch: GAL_OOC_BUDGET_BYTES=1 clamps every open
# to a single-largest-shard budget and GAL_OOC_SHARD_BYTES=512 makes
# shards tiny, so each superstep churns the whole cache. Only the
# parity suites run here — they assert results and budget-respect, not
# exact load/eviction counts (which these knobs deliberately change).
GAL_OOC_BUDGET_BYTES=1 GAL_OOC_SHARD_BYTES=512 ./build/tests/gal_tests \
    --gtest_filter='OocParityTest.*'

echo
echo "== tsan + forced compression: parity suites with GAL_GRAPH_COMPRESSION=1 =="
# Forces every FromEdges in the parity suites onto the delta-varint
# layout, so the streaming decode paths (cursors, per-worker scratch)
# run under TSan with reference and fast runs both compressed.
GAL_GRAPH_COMPRESSION=1 ./build-tsan/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*'

echo
echo "== scalar fallback: parity suites with GAL_SIMD=0 =="
# The kill switch must leave every result bit-identical — this run is
# what keeps the scalar fallback honest on AVX2 hosts (and is the only
# configuration non-AVX2 hosts ever execute).
GAL_SIMD=0 ./build/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*'

echo
echo "== scalar fallback + forced compression: GAL_SIMD=0 GAL_GRAPH_COMPRESSION=1 =="
# The two kill-switch extremes together: scalar kernels over the
# compressed layout must still be bit-identical.
GAL_SIMD=0 GAL_GRAPH_COMPRESSION=1 ./build/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*'

echo
echo "== fault: elastic cluster runtime (ctest label) =="
# The quick gate for cluster/fault.h + cluster/checkpoint.h changes:
# FaultPlan env/seed resolution, checkpoint ring accounting, the
# recovery session's failure/straggler machinery, and the cross-engine
# bit-identity sweeps (TLAV PageRank, frontier BFS/SSSP/WCC, dist-GCN,
# TLAG triangles).
(cd build && ctest -L fault --output-on-failure -j "${JOBS}")

echo
echo "== tsan: recovery-parity + rebalance suites =="
# Recovery serializes/restores engine state while host-thread pools run
# the supersteps, and rebalancing rewrites the partition mid-run — the
# sweeps rerun under TSan so a rollback racing a worker pool shows up.
./build-tsan/tests/gal_tests \
    --gtest_filter='FaultParityTest.*:RebalanceTest.*'

echo
echo "== tsan + forced direction: recovery-parity + rebalance suites, push then pull =="
# The frontier traversals (BFS/SSSP/WCC) checkpoint, roll back and
# migrate at their step barrier; forcing every step to push and then to
# pull runs each fault schedule against both step kinds' state.
for mode in push pull; do
  GAL_FRONTIER_MODE="${mode}" ./build-tsan/tests/gal_tests \
      --gtest_filter='FaultParityTest.*:RebalanceTest.*'
done

echo
echo "== forced fault schedule: parity suites with an injected failure =="
# The env kill-switch end of the fault substrate: every TLAV job in the
# reorder/SIMD parity suites (PageRank on the message engine, BFS/SSSP/
# WCC on the frontier substrate) picks up a checkpoint-every-2 schedule
# with worker 0 failing at step 3, and all the bit-identity assertions
# must still hold — recovery is invisible to results by construction.
GAL_CLUSTER_FAULT_CHECKPOINT=2 GAL_CLUSTER_FAULT_FAIL=0@3 ./build/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*'

echo
echo "== forced fault schedule: parity suites with a straggler and rebalancing =="
# The same schedule plus worker 1 slowed 4x and live rebalancing on, so
# the env-forced run also drives straggler scaling and vertex migration
# through the engines' round barrier: PageRank, WCC and BFS each take a
# rollback and a rebalance, and every bit-identity assertion must hold.
GAL_CLUSTER_FAULT_CHECKPOINT=2 GAL_CLUSTER_FAULT_FAIL=0@3 \
    GAL_CLUSTER_FAULT_SLOW=1:4 GAL_CLUSTER_FAULT_REBALANCE=1 ./build/tests/gal_tests \
    --gtest_filter='GraphReorderTest.*:ReorderSimdParityTest.*:IntersectTest.*:SimdTest.*:CompressedCsrTest.*'

echo
echo "check.sh: all green"
