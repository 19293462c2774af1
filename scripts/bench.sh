#!/usr/bin/env bash
# bench.sh — run BenchmarkSessionMultiplex at 1/12/64 flows and write
# BENCH_5.json (ns/op, MB/s, ns/flow, B/op, allocs/op per flow count,
# parsed by unit label) next to the recorded Transport-v2 baseline, so
# the zero-copy datapath win is tracked as a checked-in artifact.
#
# The 1-flow case is the regression gate: Transport v2 left it at
# 3.83 MB/s (the single-flow ceiling the zero-copy datapath removes);
# if the current run drops more than 20% below that floor the script
# fails, which fails the CI smoke step.
#
# The recorded baseline is commit 859c265 re-measured under this PR's
# allocation-light harness (source data and reader scratch hoisted out
# of the timed loop), so baseline and current count the same things.
#
# It also runs BenchmarkFeedbackPlane (flat vs. hierarchical feedback
# at 1k/10k receivers) and writes BENCH_6.json with the per-round cost
# and the flat/hier ratio — the repair tier's sender-side win as a
# checked-in artifact. The gate there is shape, not speed: the
# hierarchical round must stay at least 10x cheaper than the flat one
# at 10k receivers.
#
# It also runs BenchmarkFecCrossover (proactive parity vs. pure
# selective-NAK at 1% and 5% loss, in the netsim, the live-hub, and the
# real-UDP-loopback harness) and writes BENCH_7.json with each arm's
# mean gap-recovery latency and the nak/fec ratio. Gates: at 1% loss
# parity must recover at least 2x faster than the NAK baseline in the
# netsim and live-hub harnesses; at 5% (the crossover region, where
# double-loss groups erode the single-parity win) it must merely not be
# slower; and each live FEC arm's allocs/op must stay within 1.2x of
# its non-FEC arm. The udp arm is exempt from the latency gates — on a
# ~zero-RTT loopback link NAK recovery costs only the timer grain while
# FEC fallbacks pay the NAK-defer interval, so pure NAK wins there by
# design (the crossover is RTT-dependent); its ratios are recorded as
# evidence, and it gates only allocations and bit-exact completion. It
# skips itself where loopback multicast is unavailable.
#
# It also runs BenchmarkManyGroups (1/64/1000 group flows over 8+8
# shared shard transports) and writes BENCH_8.json with each arm's
# per-group cost and post-admission goroutine growth. Gates: per-group
# cost at 1,000 groups must stay within 1.5x the 1-group cost (a
# shared-socket demux with an O(groups) per-packet term fails this),
# and goroutine growth at 1,000 groups must stay <= 64 (O(transports),
# never O(groups)).
#
# It also runs BenchmarkUdpOffload (UDP GSO/GRO segmentation offload on
# vs off over real loopback multicast, raw-transport and full-session
# arms) plus a 1/256-flow session sweep, and writes BENCH_9.json.
# Gates, applied only when the kernel supports offload (the on arms
# skip themselves otherwise): the raw offload send path must reach 4x
# the BENCH_5 single-flow figure (24.6 MB/s -> >= 98.4), datagrams per
# send syscall must stay >= 8, and per-flow cost at 256 flows must stay
# within 2x the single-flow cost (flat per-flow scaling; the margin
# absorbs 1x-benchtime variance).
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime  go -benchtime value (default 3x; CI smoke uses 1x)
# Env:
#   BENCH_OUT   output path (default BENCH_5.json in the repo root)
#   BENCH6_OUT  feedback-plane output path (default BENCH_6.json)
#   BENCH7_OUT  FEC crossover output path (default BENCH_7.json)
#   BENCH8_OUT  many-groups output path (default BENCH_8.json)
#   BENCH9_OUT  offload output path (default BENCH_9.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-3x}"
OUT="${BENCH_OUT:-BENCH_5.json}"
OUT6="${BENCH6_OUT:-BENCH_6.json}"
OUT7="${BENCH7_OUT:-BENCH_7.json}"
OUT8="${BENCH8_OUT:-BENCH_8.json}"
OUT9="${BENCH9_OUT:-BENCH_9.json}"

RAW=$(HRMC_BENCH_FLOWS=1,12,64 go test -run '^$' -bench 'BenchmarkSessionMultiplex' \
	-benchtime "$BENCHTIME" -benchmem .)
echo "$RAW"

echo "$RAW" | awk -v benchtime="$BENCHTIME" '
/BenchmarkSessionMultiplex\/flows=/ {
	name = $1
	sub(/.*flows=/, "", name)
	sub(/-[0-9]+$/, "", name)
	# Custom metrics (ns/flow) shift field positions, so scan
	# value-unit pairs instead of indexing fixed columns.
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") ns[name] = $i
		else if ($(i+1) == "MB/s") mbs[name] = $i
		else if ($(i+1) == "ns/flow") nsflow[name] = $i
		else if ($(i+1) == "B/op") bop[name] = $i
		else if ($(i+1) == "allocs/op") allocs[name] = $i
	}
	cur[name] = sprintf("{\"ns_op\": %s, \"mb_s\": %s, \"ns_flow\": %s, \"b_op\": %s, \"allocs_op\": %s}",
		ns[name], mbs[name], nsflow[name], bop[name], allocs[name])
	if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkSessionMultiplex\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"baseline\": {\n"
	printf "    \"commit\": \"859c265 (Transport v2, per-flow goroutine pair; re-measured with the allocation-light harness)\",\n"
	printf "    \"flows\": {\n"
	printf "      \"1\": {\"ns_op\": 68454101, \"mb_s\": 3.83, \"b_op\": 904717, \"allocs_op\": 1512},\n"
	printf "      \"12\": {\"ns_op\": 77773317, \"mb_s\": 40.45, \"b_op\": 10863300, \"allocs_op\": 17914},\n"
	printf "      \"64\": {\"ns_op\": 224789063, \"mb_s\": 74.64, \"b_op\": 57859487, \"allocs_op\": 95631}\n"
	printf "    }\n"
	printf "  },\n"
	printf "  \"current\": {\n"
	printf "    \"flows\": {\n"
	for (i = 0; i < n; i++) {
		printf "      \"%s\": %s%s\n", order[i], cur[order[i]], (i < n-1 ? "," : "")
	}
	printf "    }\n"
	printf "  }\n"
	printf "}\n"
	# Gate: 1-flow MB/s must stay within 20% of the recorded baseline.
	if ("1" in mbs && mbs["1"] + 0 < 3.83 * 0.8) {
		printf "bench.sh: 1-flow regression: %.2f MB/s < 80%% of baseline 3.83 MB/s\n", mbs["1"] > "/dev/stderr"
		exit 1
	}
}' > "$OUT"

echo "wrote $OUT"

RAW6=$(go test -run '^$' -bench 'BenchmarkFeedbackPlane' \
	-benchtime "$BENCHTIME" ./internal/sender)
echo "$RAW6"

echo "$RAW6" | awk -v benchtime="$BENCHTIME" '
/BenchmarkFeedbackPlane\// {
	name = $1
	sub(/^BenchmarkFeedbackPlane\//, "", name)
	sub(/-[0-9]+$/, "", name)
	# Fields: name iters ns "ns/op"
	ns[name] = $3
	if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkFeedbackPlane\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"note\": \"ns per full feedback round at the sender: every flat receiver sends one UPDATE vs. every repair head (1%% of the population) sending one AGG_UPDATE\",\n"
	printf "  \"rounds\": {\n"
	for (i = 0; i < n; i++) {
		printf "    \"%s\": {\"ns_op\": %s}%s\n", order[i], ns[order[i]], (i < n-1 ? "," : "")
	}
	printf "  }"
	if (("flat/n=10000" in ns) && ("hier/n=10000" in ns) && ns["hier/n=10000"] + 0 > 0) {
		ratio = ns["flat/n=10000"] / ns["hier/n=10000"]
		printf ",\n  \"flat_over_hier_10k\": %.1f\n", ratio
	} else {
		ratio = -1
		printf "\n"
	}
	printf "}\n"
	# Gate: the hierarchical round must stay >= 10x cheaper at 10k.
	if (ratio >= 0 && ratio < 10) {
		printf "bench.sh: feedback-plane ratio %.1fx < 10x at 10k receivers\n", ratio > "/dev/stderr"
		exit 1
	}
}' > "$OUT6"

echo "wrote $OUT6"

RAW7=$(go test -run '^$' -bench 'BenchmarkFecCrossover' \
	-benchtime "$BENCHTIME" .)
echo "$RAW7"

echo "$RAW7" | awk -v benchtime="$BENCHTIME" '
/BenchmarkFecCrossover\// {
	name = $1
	sub(/^BenchmarkFecCrossover\//, "", name)
	sub(/-[0-9]+$/, "", name)
	# Custom metrics shift field positions, so scan value-unit pairs
	# instead of indexing fixed columns. Only the live harness reports
	# allocs (b.ReportAllocs).
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "recovery-ms") rec[name] = $i
		else if ($(i+1) == "allocs/op") alloc[name] = $i
		else if ($(i+1) == "MB/s") mbs[name] = $i
	}
	if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkFecCrossover\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"note\": \"mean gap-recovery latency (detection to repair) per arm; nak_over_fec > 1 means parity beats retransmission. 5%% loss is the measured crossover region for K=8: double-loss groups fall back to NAKs and erode the single-parity win. The udp arm runs over real loopback multicast where RTT is ~0, so NAK recovery costs only the timer grain and pure NAK wins on latency — the RTT side of the crossover; it is gated on allocations and completion only.\",\n"
	printf "  \"arms\": {\n"
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "    \"%s\": {\"recovery_ms\": %s, \"mb_s\": %s", name, rec[name], mbs[name]
		if (name in alloc) printf ", \"allocs_op\": %s", alloc[name]
		printf "}%s\n", (i < n-1 ? "," : "")
	}
	printf "  },\n"
	printf "  \"nak_over_fec\": {\n"
	nr = 0
	nh = split("netsim live udp", harness, " ")
	split("1 5", losses, " ")
	for (h = 1; h <= nh; h++) {
		for (l = 1; l <= 2; l++) {
			key = harness[h] "/loss=" losses[l] "pct"
			fk = key "/fec"; nk = key "/nak"
			if ((fk in rec) && (nk in rec) && rec[fk] + 0 > 0) {
				ratio[key] = rec[nk] / rec[fk]
				out[nr++] = sprintf("    \"%s\": %.2f", key, ratio[key])
			} else if ((fk in rec) && (nk in rec)) {
				# No FEC-arm gaps at all: an unconditional win.
				ratio[key] = -1
				out[nr++] = sprintf("    \"%s\": null", key)
			}
		}
	}
	for (i = 0; i < nr; i++) printf "%s%s\n", out[i], (i < nr-1 ? "," : "")
	printf "  }\n"
	printf "}\n"
	# Gates. At 1% loss parity must win by 2x in the netsim and
	# live-hub harnesses (ratio -1 encodes a zero-gap FEC arm, which
	# trivially passes); at 5% it must not lose. The udp arm is exempt
	# from the latency gates (loopback RTT ~0 puts it on the NAK side
	# of the crossover by design) but every live FEC arm must stay
	# within 1.2x its NAK arm allocations.
	fail = 0
	for (h = 1; h <= nh; h++) {
		if (harness[h] != "udp") {
			k1 = harness[h] "/loss=1pct"
			if ((k1 in ratio) && ratio[k1] >= 0 && ratio[k1] < 2) {
				printf "bench.sh: %s FEC recovery only %.2fx faster at 1%% loss (gate: >= 2x)\n", harness[h], ratio[k1] > "/dev/stderr"
				fail = 1
			}
			k5 = harness[h] "/loss=5pct"
			if ((k5 in ratio) && ratio[k5] >= 0 && ratio[k5] < 1) {
				printf "bench.sh: %s FEC recovery slower than NAK at 5%% loss (%.2fx, gate: >= 1x)\n", harness[h], ratio[k5] > "/dev/stderr"
				fail = 1
			}
		}
		for (l = 1; l <= 2; l++) {
			key = harness[h] "/loss=" losses[l] "pct"
			fk = key "/fec"; nk = key "/nak"
			if ((fk in alloc) && (nk in alloc) && alloc[fk] + 0 > alloc[nk] * 1.2) {
				printf "bench.sh: %s allocs/op %s > 1.2x the NAK arm %s\n", key, alloc[fk], alloc[nk] > "/dev/stderr"
				fail = 1
			}
		}
	}
	if (fail) exit 1
}' > "$OUT7"

echo "wrote $OUT7"

RAW8=$(HRMC_BENCH_GROUPS=1,64,1000 go test -run '^$' -bench 'BenchmarkManyGroups' \
	-benchtime "$BENCHTIME" .)
echo "$RAW8"

echo "$RAW8" | awk -v benchtime="$BENCHTIME" '
/BenchmarkManyGroups\/groups=/ {
	name = $1
	sub(/.*groups=/, "", name)
	sub(/-[0-9]+$/, "", name)
	# Custom metrics shift field positions, so scan value-unit pairs.
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op") ns[name] = $i
		else if ($(i+1) == "MB/s") mbs[name] = $i
		else if ($(i+1) == "ns/group") pg[name] = $i
		else if ($(i+1) == "goroutines") gor[name] = $i
	}
	if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkManyGroups\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"note\": \"N group flows (one sender + one receiver each, 32 KiB) multiplexed over 8+8 shared shard transports. ns_group is the per-group cost of the whole admission+transfer cycle; goroutines is the growth after all flows are admitted, which sharding keeps O(transports). Gates: per-group cost at 1000 groups <= 1.5x the 1-group cost, goroutine growth at 1000 groups <= 64.\",\n"
	printf "  \"arms\": {\n"
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "    \"groups=%s\": {\"ns_op\": %s, \"mb_s\": %s, \"ns_group\": %s, \"goroutines\": %s}%s\n",
			name, ns[name], mbs[name], pg[name], gor[name], (i < n-1 ? "," : "")
	}
	printf "  }"
	ratio = -1
	if (("1" in pg) && ("1000" in pg) && pg["1"] + 0 > 0) {
		ratio = pg["1000"] / pg["1"]
		printf ",\n  \"pergroup_1000_over_1\": %.3f\n", ratio
	} else {
		printf "\n"
	}
	printf "}\n"
	# Gates: flat per-group cost, O(transports) goroutines.
	fail = 0
	if (ratio >= 0 && ratio > 1.5) {
		printf "bench.sh: per-group cost at 1000 groups is %.2fx the 1-group cost (gate: <= 1.5x)\n", ratio > "/dev/stderr"
		fail = 1
	}
	if (("1000" in gor) && gor["1000"] + 0 > 64) {
		printf "bench.sh: goroutine growth at 1000 groups = %s (gate: <= 64, O(transports))\n", gor["1000"] > "/dev/stderr"
		fail = 1
	}
	if (fail) exit 1
}' > "$OUT8"

echo "wrote $OUT8"

RAW9=$(go test -run '^$' -bench 'BenchmarkUdpOffload' -benchtime "$BENCHTIME" .)
echo "$RAW9"

RAW9B=$(HRMC_BENCH_FLOWS=1,256 go test -run '^$' -bench 'BenchmarkSessionMultiplex' \
	-benchtime "$BENCHTIME" .)
echo "$RAW9B"

printf '%s\n%s\n' "$RAW9" "$RAW9B" | awk -v benchtime="$BENCHTIME" '
/BenchmarkUdpOffload\// {
	name = $1
	sub(/^BenchmarkUdpOffload\//, "", name)
	sub(/-[0-9]+$/, "", name)
	# Custom metrics shift field positions, so scan value-unit pairs.
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "MB/s") mbs[name] = $i
		else if ($(i+1) == "dgram/syscall") dps[name] = $i
		else if ($(i+1) == "gso-segs/op") gso[name] = $i
		else if ($(i+1) == "gro-super/op") gro[name] = $i
		else if ($(i+1) == "rcvd-dgrams/op") rcv[name] = $i
	}
	if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
/BenchmarkSessionMultiplex\/flows=/ {
	fname = $1
	sub(/.*flows=/, "", fname)
	sub(/-[0-9]+$/, "", fname)
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/flow") nsflow[fname] = $i
	}
	if (!(fname in fseen)) { forder[fn++] = fname; fseen[fname] = 1 }
}
END {
	printf "{\n"
	printf "  \"benchmark\": \"BenchmarkUdpOffload\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"note\": \"UDP GSO/GRO over loopback multicast. The transport arms blast staged batches through a real SenderTransport (the wire datapath the offload optimizes: dgram_syscall is send amortization, gso_segs/gro_super confirm supersegments on both sides, rcvd is what survived an unpaced 1-CPU blast). The session arms run one reliable 4 MiB single-flow transfer end to end. Gate: the offload-on transport arm must reach 4x the BENCH_5 single-flow baseline (24.6 MB/s) and >= 8 datagrams per syscall; both skip (and the gate waives) on kernels without UDP_SEGMENT/UDP_GRO. flows records per-flow session cost at 1 vs 256 flows, gated at <= 2x.\",\n"
	printf "  \"bench5_single_flow_mb_s\": 24.6,\n"
	printf "  \"arms\": {\n"
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "    \"%s\": {\"mb_s\": %s", name, mbs[name]
		if (name in dps) printf ", \"dgram_syscall\": %s", dps[name]
		if (name in gso) printf ", \"gso_segs_op\": %s", gso[name]
		if (name in gro) printf ", \"gro_super_op\": %s", gro[name]
		if (name in rcv) printf ", \"rcvd_dgrams_op\": %s", rcv[name]
		printf "}%s\n", (i < n-1 ? "," : "")
	}
	printf "  },\n"
	printf "  \"flows\": {\n"
	for (i = 0; i < fn; i++) {
		printf "    \"%s\": {\"ns_flow\": %s}%s\n", forder[i], nsflow[forder[i]], (i < fn-1 ? "," : "")
	}
	printf "  }"
	ratio = -1
	if (("1" in nsflow) && ("256" in nsflow) && nsflow["1"] + 0 > 0) {
		ratio = nsflow["256"] / nsflow["1"]
		printf ",\n  \"perflow_256_over_1\": %.3f\n", ratio
	} else {
		printf "\n"
	}
	printf "}\n"
	# Gates. The offload-on arms skip on kernels without UDP_SEGMENT /
	# UDP_GRO, in which case only the flatness gate applies.
	fail = 0
	k = "transport/offload=on"
	if (k in mbs) {
		if (mbs[k] + 0 < 24.6 * 4) {
			printf "bench.sh: offload single-flow %.1f MB/s < 4x BENCH_5 baseline 24.6 (gate: >= 98.4)\n", mbs[k] > "/dev/stderr"
			fail = 1
		}
		if ((k in dps) && dps[k] + 0 < 8) {
			printf "bench.sh: offload datagrams-per-syscall %s < 8\n", dps[k] > "/dev/stderr"
			fail = 1
		}
		if ((k in gso) && gso[k] + 0 <= 0) {
			printf "bench.sh: offload arm ran but no traffic rode GSO supersegments\n" > "/dev/stderr"
			fail = 1
		}
	}
	if (ratio >= 0 && ratio > 2) {
		printf "bench.sh: per-flow cost at 256 flows is %.2fx the 1-flow cost (gate: <= 2x)\n", ratio > "/dev/stderr"
		fail = 1
	}
	if (fail) exit 1
}' > "$OUT9"

echo "wrote $OUT9"
