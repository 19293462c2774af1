package main

import (
	"fmt"
	"os"
	"time"
)

// endToEnd derives the metrics a user of the system sees from an
// untraced (or, for the overhead comparison, traced) pass.
func endToEnd(r *run) []metric {
	o := &r.out
	return []metric{
		{"setup_s", quantile(o.setup, 0.5), "s"},
		{"goodput_MBps", ratio(float64(o.bytes)/1e6, o.wall.Seconds()), "MB/s"},
		{"xfer_p50_s", quantile(o.xfer, 0.5), "s"},
		{"xfer_p90_s", quantile(o.xfer, 0.9), "s"},
		{"ok_frac", ratio(float64(o.attempted-o.failed), float64(o.attempted)), "ratio"},
		{"max_rss_MB", maxRSSMB(), "MB"},
	}
}

// overhead compares the workload's headline metric between the
// untraced and the traced pass: the share by which tracing worsened it.
func overhead(headline string, plain, traced []metric) metric {
	var a, b float64
	for i := range plain {
		if plain[i].name == headline {
			a, b = plain[i].value, traced[i].value
		}
	}
	v := ratio(b-a, a)
	if headline == "goodput_MBps" { // higher is better
		v = -v
	}
	return metric{"trace.overhead_frac", v, "ratio"}
}

// perLayer derives the per-layer metrics of a traced pass, then adds
// the sans-I/O machine replay.
func perLayer(r *run) []metric {
	lt := r.tr.summarize()
	o := &r.out
	mb := float64(o.bytes) / 1e6
	ms := func(xs []float64, q float64) float64 { return quantile(xs, q) * 1e3 }
	frac := func(num, den kind) float64 { return ratio(lt[num].total.Seconds(), lt[den].total.Seconds()) }
	opens := append(append([]float64(nil), lt[kOpenSend].durations...), lt[kOpenRecv].durations...)
	t := &r.tally
	io0, io1 := r.start.io, r.stop.io
	p0, p1 := r.start.pool, r.stop.pool
	m0, m1 := &r.start.mem, &r.stop.mem
	s, rv := &o.agg.Sender, &o.agg.Receiver

	out := []metric{
		{"session.write_blocked_frac", frac(kWrite, kXferSend), "ratio"},
		{"session.read_wait_frac", frac(kRead, kXferRecv), "ratio"},
		{"session.open_ms", ms(opens, 0.5), "ms"},
		{"session.first_byte_ms", ms(o.firstByte, 0.5), "ms"},
		{"session.close_ms", ms(lt[kClose].durations, 0.5), "ms"},

		{"transport.send_batches", float64(t.sendBatches.Load()), "count"},
		{"transport.env_per_send_batch", ratio(float64(t.sendEnvs.Load()), float64(t.sendBatches.Load())), "count"},
		{"transport.send_ns_per_env", ratio(float64(t.sendNs.Load()), float64(t.sendEnvs.Load())), "ns"},
		{"transport.recv_env_per_batch", ratio(float64(t.recvEnvs.Load()), float64(t.recvBatches.Load())), "count"},
		{"transport.recv_wait_frac", ratio(float64(t.recvNs.Load()), float64(t.recvNs.Load()+t.recvGapNs.Load())), "ratio"},
		{"transport.wire_bytes_per_goodput_byte", ratio(float64(t.wireBytes.Load()), float64(o.bytes)), "ratio"},

		{"udpmcast.dgrams_per_syscall", ratio(float64(io1.SentDatagrams-io0.SentDatagrams), float64(io1.SendSyscalls-io0.SendSyscalls)), "count"},
		{"udpmcast.gso_segments", float64(io1.GsoSegments - io0.GsoSegments), "count"},
		{"udpmcast.gro_supersegments", float64(io1.GroSupersegments - io0.GroSupersegments), "count"},
		{"udpmcast.truncated", float64(io1.TruncatedDatagrams - io0.TruncatedDatagrams), "count"},
		{"udpmcast.send_errors", float64(io1.SendErrors - io0.SendErrors), "count"},
		{"udpmcast.join_errors", float64(t.joinErrors.Load()), "count"},

		{"packet.pool_miss_frac", ratio(float64(p1.News-p0.News), float64(p1.Gets-p0.Gets)), "ratio"},
		{"packet.pool_outstanding", float64(o.poolLeft), "count"},

		{"sender.retx_frac", ratio(float64(s.Retransmissions), float64(s.PacketsSent)), "ratio"},
		{"sender.probes_per_MB", ratio(float64(s.ProbesSent+s.MulticastProbesSent), mb), "1/MB"},
		{"sender.rate_requests", float64(s.RateRequestsReceived), "count"},
		{"sender.urgent_stops", float64(s.UrgentReceived), "count"},
		{"sender.release_stalls", float64(s.ReleaseStalls), "count"},
		{"sender.release_info_frac", ratio(float64(s.ReleasesCompleteInfo), float64(s.Releases)), "ratio"},

		{"receiver.naks_per_MB", ratio(float64(rv.NaksSent), mb), "1/MB"},
		{"receiver.nak_retries", float64(rv.NakRetries), "count"},
		{"receiver.dup_frac", ratio(float64(rv.Duplicates), float64(rv.DataReceived)), "ratio"},
		{"receiver.updates_per_MB", ratio(float64(rv.UpdatesSent), mb), "1/MB"},
		{"receiver.max_fill_permille", float64(rv.MaxFillPermille), "permille"},

		{"control.admit_ms_p50", ms(lt[kAdmit].durations, 0.5), "ms"},
		{"control.admit_ms_p90", ms(lt[kAdmit].durations, 0.9), "ms"},
		{"control.admit_self_ms_p50", ms(lt[kAdmit].selfs, 0.5), "ms"},
		{"control.join_ms_p50", ms(lt[kJoin].durations, 0.5), "ms"},
		{"control.forget_ms_p50", ms(lt[kForget].durations, 0.5), "ms"},
		{"control.gen_late_ms_max", float64(o.genLate) / float64(time.Millisecond), "ms"},

		{"go.allocs_per_MB", ratio(float64(m1.Mallocs-m0.Mallocs), mb), "1/MB"},
		{"go.gc_cycles", float64(m1.NumGC - m0.NumGC), "count"},
		{"go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
	}
	printLayerTimes(lt)
	rep, err := replay(r.seed)
	if err != nil {
		r.corrupt(fmt.Sprintf("machine replay: %v", err))
	}
	return append(out, rep...)
}

// printLayerTimes prints each span kind's call count, total time and
// self time, so a reader can see where a transfer's time went.
func printLayerTimes(lt [nKinds]layerTimes) {
	fmt.Fprintf(os.Stdout, "# %-24s %10s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for k := kind(0); k < nKinds; k++ {
		if lt[k].count == 0 {
			continue
		}
		fmt.Fprintf(os.Stdout, "# %-24s %10d %12.4f %12.4f\n", kindNames[k], lt[k].count, lt[k].total.Seconds(), lt[k].self.Seconds())
	}
}
