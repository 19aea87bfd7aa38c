package rig

import (
	"time"
)

// Enforcement is what the mutation chain measured: one sample per
// mutation, in nanoseconds on the rig clock.
type Enforcement struct {
	// RevokeTTE: PUT /v1/policy written → covering delete at the last
	// probed switch. QuarantineTTE: compromise event written → the same.
	RevokeTTE, QuarantineTTE []int64
	// The revocation's boundary hops: request written → first switch
	// updated, first → last switch, request written → HTTP response.
	APIToFirst, FirstToLast, APIReturn []int64

	// Ops counts mutations (edits, restores, compromises, clears); Attempted
	// adds the probe admissions and verdict checks around them.
	Ops, Attempted, Failed int64
	Elapsed                time.Duration
	Spans                  []Span
}

// Enforce runs the mutation chain until the rig clock reaches until. Each
// cycle takes one reserved allow line: it removes the line through the
// admin API and restores it, then quarantines the line's source host
// through the sensor stream and clears it. Before either revocation a probe
// flow the line allows is admitted on every probed switch; the revocation
// is timed to the instant the last of them has received a delete covering
// its probe entry, and a probe offered afterwards must be denied.
//
// opsPerSec paces the four mutations of a cycle in an open loop; 0 runs
// them back to back.
func (r *Rig) Enforce(until time.Duration, opsPerSec float64, trace bool) Enforcement {
	var e Enforcement
	start := r.now()
	nextOp := start
	pace := func() {
		if opsPerSec <= 0 {
			return
		}
		if d := nextOp - r.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		// A mutation that overran its slot delays the next one; the chain
		// does not burst to catch up.
		nextOp = max(nextOp, r.now()) + int64(float64(time.Second)/opsPerSec)
	}
	check := func(ops, failed int64) {
		e.Attempted += ops
		e.Failed += failed
	}
	span := func(name, parent string, k int, from, to int64) {
		if trace && len(e.Spans) < maxSpans {
			e.Spans = append(e.Spans, Span{Name: name, Parent: parent, Req: uint32(k), StartNs: from, EndNs: to})
		}
	}
	// revoked waits for the covering deletes after a mutation written at t0
	// and records the hop samples into tte.
	revoked := func(k int, t0 int64, tte *[]int64, name string) (first, last int64, ok bool) {
		ok = r.await(ReplyTimeout, func() bool {
			for _, s := range r.probed {
				if present, _, _, _ := s.Probe(k); present {
					return false
				}
			}
			return true
		})
		if !ok {
			return 0, 0, false // a probe entry outlived the revocation
		}
		for i, s := range r.probed {
			_, _, _, at := s.Probe(k)
			if i == 0 || at < first {
				first = at
			}
			last = max(last, at)
		}
		*tte = append(*tte, last-t0)
		span(name, "", k, t0, last)
		return first, last, true
	}
	// denied offers the probe to one switch and expects a deny entry back;
	// gone then waits for that entry to be flushed by the next mutation.
	witness := r.probed[0]
	denied := func(k int) {
		ops, failed := r.admitProbe(k, r.probed[:1], false)
		check(ops, failed)
	}
	gone := func(k int) {
		ok := r.await(ReplyTimeout, func() bool {
			present, _, _, _ := witness.Probe(k)
			return !present
		})
		check(1, btoi(!ok))
	}

	for cycle := 0; r.now() < int64(until); cycle++ {
		k := cycle % len(r.In.Probes)
		p := &r.In.Probes[k]

		check(r.admitProbe(k, r.probed, true))
		pace()
		t0 := r.now()
		err := r.Dfid.PutPolicy(r.policyWithout[k])
		ret := r.now()
		e.Ops++
		if first, last, ok := revoked(k, t0, &e.RevokeTTE, "revoke"); ok && err == nil {
			check(1, 0)
			e.APIToFirst = append(e.APIToFirst, first-t0)
			e.FirstToLast = append(e.FirstToLast, last-first)
			e.APIReturn = append(e.APIReturn, ret-t0)
			span("hop.api_to_first_sw_ms", "revoke", k, t0, first)
			span("hop.first_to_last_sw_ms", "revoke", k, first, last)
			span("hop.api_return_ms", "revoke", k, t0, ret)
		} else {
			check(1, 1)
		}
		denied(k)

		pace()
		err = r.Dfid.PutPolicy(r.policyFull)
		e.Ops++
		check(1, btoi(err != nil))
		gone(k) // restoring the allow flushes the default-deny entry

		check(r.admitProbe(k, r.probed, true))
		pace()
		t0 = r.now()
		err = r.Sensor.Compromise(r.In.Hosts[p.Src].Name, false)
		e.Ops++
		_, _, ok := revoked(k, t0, &e.QuarantineTTE, "quarantine")
		check(1, btoi(!ok || err != nil))
		denied(k)

		pace()
		err = r.Sensor.Compromise(r.In.Hosts[p.Src].Name, true)
		e.Ops++
		check(1, btoi(err != nil))
		gone(k) // retracting the quarantine flushes its deny entry
	}
	e.Elapsed = time.Duration(r.now() - start)
	return e
}

// admitProbe offers probe k to each of the switches and waits for every
// verdict. It returns the admissions attempted and how many came back
// wrong or not at all.
func (r *Rig) admitProbe(k int, switches []*Switch, expectAllow bool) (ops, failed int64) {
	p := &r.In.Probes[k]
	sent := r.now()
	for _, s := range switches {
		if err := s.SendProbe(k, p, expectAllow); err != nil {
			failed++
		}
	}
	r.await(ReplyTimeout, func() bool {
		for _, s := range switches {
			if present, _, at, _ := s.Probe(k); !present || at < sent {
				return false
			}
		}
		return true
	})
	for _, s := range switches {
		if present, allow, at, _ := s.Probe(k); !present || at < sent || allow != expectAllow {
			failed++
		}
	}
	return int64(len(switches)), min(failed, int64(len(switches)))
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
