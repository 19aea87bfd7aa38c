// Command dfid runs the DFI control plane: it accepts OpenFlow switch
// connections, interposes DFI's access control in front of an SDN
// controller, and serves the administrative API.
//
// Usage:
//
//	dfid -listen :6653 -controller 127.0.0.1:6654 -admin 127.0.0.1:8181
//
// Point switches at dfid instead of the controller; dfid dials the real
// controller per switch. The initial policy is default-deny; use
// -bootstrap allow-all for a permissive start, and dfictl (or the admin
// API) to manage policy at runtime.
package main

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/admin"
	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/core/pdp"
	"github.com/dfi-sdn/dfi/internal/sensors"
	"github.com/dfi-sdn/dfi/internal/tlsutil"
)

func main() {
	var (
		listenAddr = flag.String("listen", ":6653", "address to accept OpenFlow switch connections on")
		ctlAddr    = flag.String("controller", "127.0.0.1:6654", "SDN controller address to dial per switch")
		adminAddr  = flag.String("admin", "127.0.0.1:8181", "admin API address (empty to disable)")
		sensorAddr = flag.String("sensor-listen", "", "address to accept remote sensor event streams (length-prefixed JSON; empty to disable)")
		bootstrap  = flag.String("bootstrap", "default-deny", "initial policy: default-deny|allow-all")
		policyFile = flag.String("policy-file", "", "policy document to compile at startup (see internal/policytext)")
		quarantine = flag.String("quarantine-template", "", "policy template instantiated as <name>(host) on compromise events")
		queueDepth = flag.Int("queue", 512, "PCP admission queue depth")
		workers    = flag.Int("workers", 8, "PCP worker count")

		auditLog      = flag.String("audit-log", "", "path of the hash-chained enforcement audit log (empty to disable)")
		auditMaxBytes = flag.Int64("audit-max-bytes", 0, "audit log rotation threshold in bytes (0 = 64 MiB default)")
		pprofOn       = flag.Bool("pprof", false, "expose /debug/pprof on the admin API")
		sloInterval   = flag.Duration("slo-interval", 0, "evaluate the default service-level objectives at this interval and serve GET /v1/slo (0 disables the engine; negative evaluates at read time only)")

		tlsCert = flag.String("tls-cert", "", "PEM certificate for accepting switches over TLS")
		tlsKey  = flag.String("tls-key", "", "PEM key for -tls-cert")
		tlsCA   = flag.String("tls-ca", "", "CA bundle; when set, switches must present client certificates")

		ctlCA      = flag.String("controller-ca", "", "CA bundle for dialing the controller over TLS")
		ctlCert    = flag.String("controller-cert", "", "client certificate for the controller connection")
		ctlKey     = flag.String("controller-key", "", "client key for -controller-cert")
		ctlTLSName = flag.String("controller-tls-name", "", "expected controller TLS server name (defaults to its host)")
	)
	flag.Parse()
	cfg := daemonConfig{
		listenAddr: *listenAddr, ctlAddr: *ctlAddr, adminAddr: *adminAddr,
		sensorAddr: *sensorAddr,
		bootstrap:  *bootstrap, policyFile: *policyFile,
		quarantineTmpl: *quarantine,
		queueDepth:     *queueDepth, workers: *workers,
		auditLog: *auditLog, auditMaxBytes: *auditMaxBytes, pprof: *pprofOn,
		sloInterval: *sloInterval,
		tlsCert:     *tlsCert, tlsKey: *tlsKey, tlsCA: *tlsCA,
		ctlCA: *ctlCA, ctlCert: *ctlCert, ctlKey: *ctlKey, ctlTLSName: *ctlTLSName,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dfid:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	listenAddr, ctlAddr, adminAddr string
	sensorAddr                     string
	bootstrap, policyFile          string
	quarantineTmpl                 string
	queueDepth, workers            int
	auditLog                       string
	auditMaxBytes                  int64
	pprof                          bool
	sloInterval                    time.Duration
	tlsCert, tlsKey, tlsCA         string
	ctlCA, ctlCert, ctlKey         string
	ctlTLSName                     string
}

func run(cfg daemonConfig) error {
	listenAddr, ctlAddr, adminAddr := cfg.listenAddr, cfg.ctlAddr, cfg.adminAddr
	bootstrap, policyFile := cfg.bootstrap, cfg.policyFile

	dialController := func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", ctlAddr)
	}
	if cfg.ctlCA != "" {
		serverName := cfg.ctlTLSName
		if serverName == "" {
			host, _, err := net.SplitHostPort(ctlAddr)
			if err != nil {
				return fmt.Errorf("controller address: %w", err)
			}
			serverName = host
		}
		tlsCfg, err := tlsutil.LoadClientConfig(cfg.ctlCA, cfg.ctlCert, cfg.ctlKey, serverName)
		if err != nil {
			return err
		}
		dialController = func() (io.ReadWriteCloser, error) {
			return tls.Dial("tcp", ctlAddr, tlsCfg)
		}
	}

	sysOpts := []dfi.Option{
		dfi.WithControllerDialer(dialController),
		dfi.WithAdmissionQueue(cfg.queueDepth, cfg.workers),
	}
	if cfg.auditLog != "" {
		sysOpts = append(sysOpts, dfi.WithAuditLog(cfg.auditLog, cfg.auditMaxBytes))
	}
	if cfg.sloInterval != 0 {
		sysOpts = append(sysOpts, dfi.WithSLO(), dfi.WithSLOInterval(cfg.sloInterval))
	}
	sys, err := dfi.New(sysOpts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	if cfg.auditLog != "" {
		log.Printf("audit log at %s (head %.12s…)", cfg.auditLog, sys.Audit().Head())
	}

	switch bootstrap {
	case "default-deny":
		// Nothing to do: no matching rule means deny.
	case "allow-all":
		allowAll, err := pdp.NewAllowAll(sys.Policy())
		if err != nil {
			return err
		}
		if err := allowAll.Enable(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown bootstrap policy %q", bootstrap)
	}

	if policyFile != "" {
		src, err := os.ReadFile(policyFile)
		if err != nil {
			return fmt.Errorf("policy file: %w", err)
		}
		delta, err := sys.PolicyEngine().SetSource(string(src))
		if err != nil {
			return fmt.Errorf("policy file %s:\n%v", policyFile, err)
		}
		log.Printf("compiled %s: %d rule(s) installed", policyFile, len(delta.Insert))
	}

	if cfg.quarantineTmpl != "" {
		cancelQuarantine, _, err := sensors.AttachQuarantineTemplate(sys.EventBus(), sys.PolicyEngine(), cfg.quarantineTmpl)
		if err != nil {
			return err
		}
		defer cancelQuarantine()
		log.Printf("compromise events instantiate policy template %s(host)", cfg.quarantineTmpl)
	}

	if cfg.sensorAddr != "" {
		codec := bus.NewCodec()
		sensors.RegisterWireTypes(codec)
		sensorLis, err := net.Listen("tcp", cfg.sensorAddr)
		if err != nil {
			return fmt.Errorf("sensor listen: %w", err)
		}
		log.Printf("accepting remote sensor streams on %s", sensorLis.Addr())
		go func() {
			if err := bus.ServeSink(sensorLis, codec, sys.EventBus()); err != nil {
				log.Printf("sensor sink stopped: %v", err)
			}
		}()
	}

	if adminAddr != "" {
		adminLis, err := net.Listen("tcp", adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		log.Printf("admin API on http://%s", adminLis.Addr())
		var handlerOpts []admin.HandlerOption
		if cfg.pprof {
			handlerOpts = append(handlerOpts, admin.WithPprof())
			log.Printf("pprof exposed at http://%s/debug/pprof/", adminLis.Addr())
		}
		go func() {
			if err := http.Serve(adminLis, admin.Handler(sys, handlerOpts...)); err != nil {
				log.Printf("admin server stopped: %v", err)
			}
		}()
	}

	var lis net.Listener
	if cfg.tlsCert != "" {
		tlsCfg, err := tlsutil.LoadServerConfig(cfg.tlsCert, cfg.tlsKey, cfg.tlsCA)
		if err != nil {
			return err
		}
		lis, err = tls.Listen("tcp", listenAddr, tlsCfg)
		if err != nil {
			return fmt.Errorf("listen (tls): %w", err)
		}
		log.Printf("TLS enabled for switch connections (mutual auth: %v)", cfg.tlsCA != "")
	} else {
		lis, err = net.Listen("tcp", listenAddr)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
	}
	log.Printf("accepting switches on %s, fronting controller %s (policy bootstrap: %s)",
		lis.Addr(), ctlAddr, bootstrap)

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM; per-switch
	// sessions terminate when their connections close.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("received %v; shutting down", sig)
		lis.Close()
	}()

	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		remote := conn.RemoteAddr()
		log.Printf("switch connected from %s", remote)
		if err := sys.HandleSwitch(conn, func(err error) {
			if err != nil {
				log.Printf("switch %s: %v", remote, err)
			} else {
				log.Printf("switch %s disconnected", remote)
			}
		}); err != nil {
			log.Printf("switch %s: %v", remote, err)
		}
	}
}
