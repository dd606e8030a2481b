package core

import (
	"testing"

	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Fixtures shared with the external core_test package, whose tests certify
// solver plans with internal/check (check imports core, so core's own tests
// cannot).

// Fig25 is the Figures 2–5 network and tunnel layout of newFig25.
type Fig25 struct {
	Net           *topology.Network
	Tun           *tunnel.Set
	S2, S4        topology.SwitchID
	F24, F34, F14 tunnel.Flow
}

func NewFig25(t *testing.T) Fig25 {
	fx := newFig25(t)
	return Fig25{Net: fx.net, Tun: fx.tun, S2: fx.s2, S4: fx.s4, F24: fx.f24, F34: fx.f34, F14: fx.f14}
}

var (
	RandomNetwork = randomNetwork
	BuildFixture  = buildFixture
)
