package rig

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/dfi-sdn/dfi/benchmark/gen"
)

// Config describes the rig one workload runs on.
type Config struct {
	In *gen.Inputs
	// DfidBinary is the built cmd/dfid; PolicyFile the document it loads;
	// Dir receives dfid.log.
	DfidBinary string
	PolicyFile string
	Dir        string
	// LoadSwitches connections carry load, each with a sender and a
	// receiver; PassiveSwitches more are handshaken and left to the poller.
	LoadSwitches    int
	PassiveSwitches int
	// Relay makes the load connections send table-1 packet-ins, which
	// dfid relays to the controller stub, instead of table-0 ones.
	Relay bool
	// ProbeLoad lets the mutation chain place its probes on the load
	// connections too. It is off when the chain runs beside the load.
	ProbeLoad bool
	// Bare starts dfid with its policy and nothing else: no host is bound
	// and nothing is learned. Sessions added to such a rig are idle ones.
	Bare bool
	// Learn holds, per load connection, one flow from each source host the
	// connection will send for, so every MAC location is bound in set-up
	// and the timed phases see no first-packet binding churn.
	Learn [][]LoadFlow
}

// Rig is dfid plus every peer it talks to.
type Rig struct {
	In      *gen.Inputs
	Load    []*Switch
	Passive []*Switch
	Ctl     *Controller
	Sensor  *Sensor
	Dfid    *Dfid
	// SetupOps counts the admissions set-up made while learning, SetupErr
	// those the oracle disagreed with or that went unanswered.
	SetupOps, SetupErr int64

	base    time.Time
	cfg     Config
	poller  *Poller
	keeper  *keeper
	rxWG    sync.WaitGroup // load receivers
	closed  sync.Once
	probeCh chan struct{}
	probed  []*Switch

	piSmall, piLarge, piRelaySmall, piRelayLarge *piTemplate
	reply                                        *relayReply

	policyFull    []byte
	policyWithout [][]byte
}

// Setup starts dfid and brings the rig to the point where load can begin:
// policy loaded, every host bound through the sensor stream, every session
// handshaken, every MAC location and probe learned. Its wall time is the
// benchmark's setup_s.
func Setup(cfg Config) (r *Rig, err error) {
	r = &Rig{In: cfg.In, cfg: cfg, base: time.Now(), probeCh: make(chan struct{}, 1)}
	defer func() {
		if err != nil {
			r.Close()
			r = nil
		}
	}()
	for _, t := range []struct {
		dst     **piTemplate
		table   uint8
		payload int
	}{{&r.piSmall, 0, SmallPayload}, {&r.piLarge, 0, LargePayload}, {&r.piRelaySmall, 1, SmallPayload}, {&r.piRelayLarge, 1, LargePayload}} {
		if *t.dst, err = newPITemplate(t.table, t.payload); err != nil {
			return r, err
		}
	}
	if r.reply, err = newRelayReply(); err != nil {
		return r, err
	}
	r.policyFull = PolicyBody(cfg.In.Policy)
	for _, p := range cfg.In.Probes {
		r.policyWithout = append(r.policyWithout, PolicyBody(cfg.In.PolicyWithout(p.Line)))
	}
	if r.keeper, err = startKeeper(); err != nil {
		return r, err
	}
	if r.poller, err = newPoller(r.now); err != nil {
		return r, err
	}
	if r.Ctl, err = newController(r); err != nil {
		return r, err
	}
	// dfid's three ports are reserved by binding and releasing them, so a
	// neighbour can take one in between; a start that fails is tried again.
	for attempt := 0; ; attempt++ {
		r.Dfid, err = StartDfid(cfg.DfidBinary, r.Ctl.Addr(), cfg.PolicyFile, filepath.Join(cfg.Dir, "dfid.log"), len(cfg.In.Rules))
		if err == nil {
			break
		}
		if attempt == 2 {
			return r, err
		}
	}
	if r.Sensor, err = dialSensor(r.Dfid.SensorAddr); err != nil {
		return r, err
	}
	if cfg.Bare {
		return r, nil
	}
	if err = r.bindHosts(); err != nil {
		return r, err
	}
	for i := 0; i < cfg.LoadSwitches; i++ {
		s, err := r.dialSwitch(uint64(0x100+i), true, cfg.Relay)
		if err != nil {
			return r, err
		}
		r.Load = append(r.Load, s)
	}
	if _, err = r.AddPassive(cfg.PassiveSwitches); err != nil {
		return r, err
	}
	if cfg.ProbeLoad {
		r.probed = append(r.probed, r.Load...)
	}
	r.probed = append(r.probed, r.Passive...)
	return r, r.learn()
}

// AddPassive handshakes n more passive sessions and reports how long that
// took.
func (r *Rig) AddPassive(n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		s, err := r.dialSwitch(uint64(0x10000+len(r.Passive)), false, false)
		if err != nil {
			return 0, err
		}
		r.Passive = append(r.Passive, s)
	}
	return time.Since(start), nil
}

// bindChunk is how many hosts' bindings are in flight at once. The bus
// between the sensor stream and the entity manager queues 1,024 events per
// topic and drops on overflow; a chunk puts at most bindChunk on each.
const bindChunk = 1000

// bindHosts streams the population's bindings a chunk at a time, waiting
// for dfid to hold each chunk before sending the next, so nothing is
// dropped however the two processes are scheduled.
func (r *Rig) bindHosts() error {
	hosts := r.In.Hosts
	for sent := 0; sent < len(hosts); {
		n := min(bindChunk, len(hosts)-sent)
		if err := r.Sensor.BindAll(hosts[sent : sent+n]); err != nil {
			return fmt.Errorf("sensor stream: %w", err)
		}
		sent += n
		deadline := time.Now().Add(10 * time.Second)
		for {
			m, _, err := r.Dfid.Scrape()
			if err != nil {
				return err
			}
			if m["dfi_entity_bindings"] >= float64(3*sent) {
				break
			}
			if m["dfi_bus_dropped_total"] > 0 || time.Now().After(deadline) {
				return fmt.Errorf("dfid holds %v of %d bindings (%v dropped by its bus)",
					m["dfi_entity_bindings"], 3*sent, m["dfi_bus_dropped_total"])
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

// learn admits one flow per source host on each load connection and every
// probe on every probed switch.
func (r *Rig) learn() error {
	for i, flows := range r.cfg.Learn {
		if len(flows) == 0 {
			continue
		}
		var seq uint32
		res, err := r.Load[i].Run(Phase{
			Window: 64, Count: int64(len(flows)), Duration: time.Minute,
			Next: func(q uint32) (*LoadFlow, uint16) { return &flows[q], SlotPort(q) },
		}, &seq)
		if err != nil {
			return err
		}
		r.SetupOps += res.Sent
		r.SetupErr += res.Wrong + res.Lost + res.Stray
	}
	for k := range r.In.Probes {
		ops, failed := r.admitProbe(k, r.probed, true)
		r.SetupOps += ops
		r.SetupErr += failed
	}
	return nil
}

// KeepAwake keeps every CPU from halting while a fixed-rate phase runs
// (see awake.go), or lets them idle again.
func (r *Rig) KeepAwake(on bool) error { return r.keeper.set(on) }

// probeEvent tells the mutation chain that some probe entry changed.
func (r *Rig) probeEvent() {
	select {
	case r.probeCh <- struct{}{}:
	default:
	}
}

// await polls cond, woken by probe events, until it holds or d has passed.
func (r *Rig) await(d time.Duration, cond func() bool) bool {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for !cond() {
		select {
		case <-r.probeCh:
		case <-deadline.C:
			return cond()
		}
	}
	return true
}

// TakeSpans returns the controller-side spans. Valid after Close.
func (r *Rig) TakeSpans() []Span { return r.Ctl.TakeSpans() }

// Close stops dfid and every goroutine of the rig, and waits for them.
func (r *Rig) Close() { r.closed.Do(r.close) }

func (r *Rig) close() {
	if r.keeper != nil {
		r.keeper.close()
	}
	if r.Dfid != nil {
		r.Dfid.Stop()
	}
	if r.poller != nil {
		r.poller.Close()
	}
	if r.Sensor != nil {
		r.Sensor.Close()
	}
	for _, s := range append(r.Load, r.Passive...) {
		s.Close()
	}
	r.rxWG.Wait()
	if r.Ctl != nil {
		r.Ctl.Close()
	}
}
