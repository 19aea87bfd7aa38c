package rig

import (
	"bufio"
	"net"
	"time"

	"github.com/dfi-sdn/dfi/benchmark/gen"
	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/sensors"
)

// Sensor is the benchmark's remote sensor: it speaks dfid's -sensor-listen
// stream, the path bindings and compromise events take in production.
type Sensor struct {
	conn net.Conn
	w    *bufio.Writer
	pub  *bus.RemotePublisher
}

func dialSensor(addr string) (*Sensor, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	codec := bus.NewCodec()
	sensors.RegisterWireTypes(codec)
	w := bufio.NewWriterSize(conn, 64<<10)
	return &Sensor{conn: conn, w: w, pub: bus.NewRemotePublisher(w, codec)}, nil
}

// BindAll publishes the three bindings of every host: user↔host from the
// SIEM, host↔IP from DNS, IP↔MAC from DHCP.
func (s *Sensor) BindAll(hosts []gen.Host) error {
	for i := range hosts {
		h := &hosts[i]
		events := [3]bus.Event{
			{Topic: sensors.TopicAuth, Payload: sensors.AuthEvent{User: h.User, Host: h.Name, LoggedOn: true}},
			{Topic: sensors.TopicDNS, Payload: sensors.DNSBinding{Host: h.Name, IP: h.IP}},
			{Topic: sensors.TopicDHCP, Payload: sensors.DHCPBinding{IP: h.IP, MAC: h.MAC}},
		}
		for _, ev := range events {
			if err := s.pub.Publish(ev); err != nil {
				return err
			}
		}
	}
	return s.w.Flush()
}

// Compromise reports host as compromised, or as cleared.
func (s *Sensor) Compromise(host string, cleared bool) error {
	err := s.pub.Publish(bus.Event{Topic: sensors.TopicCompromise, Payload: sensors.CompromiseEvent{Host: host, Cleared: cleared}})
	if err != nil {
		return err
	}
	return s.w.Flush()
}

// Close closes the stream.
func (s *Sensor) Close() { s.conn.Close() }
