// Package simnet models the network substrate of the paper's evaluation
// (§V-A): nodes placed at random coordinates, 100 ms-scale link latency that
// grows with distance, and 20 Mbps per-node bandwidth that serializes
// outbound transfers. It plays the role OverSim's underlay plays in the
// paper: message delivery is scheduled on the discrete-event kernel with
// delay = serialization (size/bandwidth, queued per sender) + propagation
// (baseLatency × (0.5 + torus distance)).
//
// The latency scale and the bandwidth are constants: §V-A fixes the network
// at 100 ms and 20 Mbps for every experiment, and no run varies them.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"optchain/internal/des"
)

// NodeID identifies a network node.
type NodeID int32

// The paper's network constants (§V-A).
const (
	// baseLatency scales propagation delay; the paper imposes 100 ms.
	baseLatency = 100 * time.Millisecond
	// bandwidthBps is each node's outbound bandwidth in bytes/second: the
	// paper's 20 Mbps.
	bandwidthBps = 20e6 / 8
)

type nodeState struct {
	x, y float64
	// busyUntil is when the node's outbound link frees up; transfers queue
	// behind each other (serialization delay).
	busyUntil time.Duration
}

// Network simulates message passing between positioned nodes.
type Network struct {
	sim   *des.Simulator
	nodes []nodeState

	// Sent counts messages; Bytes counts payload volume.
	Sent  int64
	Bytes int64
}

// New creates an empty network on the given simulator.
func New(sim *des.Simulator) *Network {
	return &Network{sim: sim}
}

// AddNode places a node at (x, y) on the unit torus.
func (n *Network) AddNode(x, y float64) NodeID {
	n.nodes = append(n.nodes, nodeState{x: wrap(x), y: wrap(y)})
	return NodeID(len(n.nodes) - 1)
}

// AddRandomNodes places count nodes uniformly at random.
func (n *Network) AddRandomNodes(count int, rng *rand.Rand) []NodeID {
	ids := make([]NodeID, 0, count)
	for i := 0; i < count; i++ {
		ids = append(ids, n.AddNode(rng.Float64(), rng.Float64()))
	}
	return ids
}

// NumNodes returns the number of placed nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

func wrap(v float64) float64 {
	v = math.Mod(v, 1)
	if v < 0 {
		v++
	}
	return v
}

// torusDist is the shortest distance between two points on the unit torus;
// it lies in [0, √2/2].
func torusDist(a, b nodeState) float64 {
	dx := math.Abs(a.x - b.x)
	if dx > 0.5 {
		dx = 1 - dx
	}
	dy := math.Abs(a.y - b.y)
	if dy > 0.5 {
		dy = 1 - dy
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// Latency returns the propagation delay between two nodes:
// baseLatency × (0.5 + distance). The mean over random pairs is close to
// the paper's 100 ms setting.
func (n *Network) Latency(from, to NodeID) time.Duration {
	d := torusDist(n.nodes[from], n.nodes[to])
	return time.Duration(float64(baseLatency) * (0.5 + d))
}

// TransferTime returns the serialization delay of size bytes at the
// sender's bandwidth.
func (n *Network) TransferTime(size int) time.Duration {
	if size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / bandwidthBps * float64(time.Second))
}

// Send schedules delivery of a size-byte message from one node to another.
// The message first waits for the sender's outbound link (transfers are
// serialized per sender), then takes the link's propagation latency.
// deliver runs at the receiver at arrival time.
//
//optchain:hotpath every protocol message of every simulated transaction.
func (n *Network) Send(from, to NodeID, size int, name string, deliver func(*des.Simulator)) {
	if int(from) >= len(n.nodes) || int(to) >= len(n.nodes) || from < 0 || to < 0 {
		panic(fmt.Sprintf("simnet: send %d->%d outside %d nodes", from, to, len(n.nodes)))
	}
	done := n.Occupy(from, n.sim.Now(), size, 1)
	n.sim.ScheduleAt(done+n.Latency(from, to), name, deliver)
}

// Occupy queues count back-to-back transfers of size bytes on from's
// outbound link, the first starting no earlier than at, counts them as sent
// and returns when the last one has left the link. It is Send without the
// delivery events, for a caller that derives the arrivals in closed form
// (the committee round in package shard); at may lie in the future when
// nothing else sends from that node in between.
func (n *Network) Occupy(from NodeID, at time.Duration, size, count int) time.Duration {
	sender := &n.nodes[from]
	if sender.busyUntil > at {
		at = sender.busyUntil
	}
	sender.busyUntil = at + time.Duration(count)*n.TransferTime(size)
	n.CountTraffic(size, count)
	return sender.busyUntil
}

// BusyUntil returns when from's outbound link frees up. The simulator never
// asks; it stays exported because internal/shard's per-message consensus
// oracle (a test) reads each node's link to check the closed-form round
// against it, and a _test.go helper cannot cross packages.
func (n *Network) BusyUntil(from NodeID) time.Duration { return n.nodes[from].busyUntil }

// CountTraffic accounts count messages of size bytes that occupy no
// sender's link (the analytically modelled pipelined broadcast).
func (n *Network) CountTraffic(size, count int) {
	n.Sent += int64(count)
	n.Bytes += int64(count) * int64(size)
}
