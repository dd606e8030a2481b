// Package wire defines the JSON formats the CLI tools exchange: topologies
// (handled natively by internal/topology), demand files, computed TE
// states, ffcd's update frames and the trace records that ffcd, ffcsim and
// the ffcd snapshot carry, all keyed by switch names so files are
// human-editable. It is also the one place outside names resolve back to
// IDs (names.go): every reader of a file, frame, record, snapshot or prop
// scenario goes through ResolveSwitch, ResolveFlow, ResolveDemand and
// MarkLink, so each one applies the same checks.
package wire

import (
	"encoding/json"
	"fmt"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// DemandEntry is one flow's demand.
type DemandEntry struct {
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Demand float64 `json:"demand"`
}

// DemandsFile is the demand-file wrapper.
type DemandsFile struct {
	Demands []DemandEntry `json:"demands"`
}

// ParseDemands resolves a demands file against a topology (AddDemands).
func ParseDemands(net *topology.Network, data []byte) (demand.Matrix, error) {
	var f DemandsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("wire: parsing demands: %w", err)
	}
	m := demand.Matrix{}
	if err := AddDemands(net, m, f.Demands); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeDemands renders a matrix back to the file format (deterministic
// flow order).
func EncodeDemands(net *topology.Network, m demand.Matrix) DemandsFile {
	var f DemandsFile
	for _, fl := range m.Flows() {
		f.Demands = append(f.Demands, DemandEntry{
			Src: net.Switches[fl.Src].Name, Dst: net.Switches[fl.Dst].Name, Demand: m[fl],
		})
	}
	return f
}

// TunnelAlloc is one tunnel's share of a flow.
type TunnelAlloc struct {
	Path   []string `json:"path"` // switch names, ingress→egress
	Alloc  float64  `json:"alloc"`
	Weight float64  `json:"weight"`
}

// StateFlow is one flow of a computed configuration.
type StateFlow struct {
	Src     string        `json:"src"`
	Dst     string        `json:"dst"`
	Demand  float64       `json:"demand"`
	Rate    float64       `json:"rate"`
	Tunnels []TunnelAlloc `json:"tunnels"`
}

// StateFile is the TE-output wrapper.
type StateFile struct {
	TotalDemand float64     `json:"total_demand"`
	TotalRate   float64     `json:"total_rate"`
	Flows       []StateFlow `json:"flows"`
}

// EncodeState renders a computed configuration.
//
// Every slice is sized up front: the tunnels and the path hops of the whole
// plan are each carved from one backing array, capped so an append to one
// never writes into the next. A flow without tunnels keeps a nil list, as
// appending left it.
func EncodeState(net *topology.Network, tun *tunnel.Set, demands demand.Matrix, st *core.State) StateFile {
	out := StateFile{TotalDemand: demands.Total(), TotalRate: st.TotalRate()}
	flows := demands.Flows()
	nTun, nHop := 0, 0
	for _, fl := range flows {
		for _, t := range tun.Tunnels(fl) {
			nTun++
			nHop += len(t.Switches)
		}
	}
	tas, hops := make([]TunnelAlloc, 0, nTun), make([]string, 0, nHop)
	if len(flows) > 0 {
		out.Flows = make([]StateFlow, 0, len(flows))
	}
	for _, fl := range flows {
		sf := StateFlow{
			Src: net.Switches[fl.Src].Name, Dst: net.Switches[fl.Dst].Name,
			Demand: demands[fl], Rate: st.Rate[fl],
		}
		alloc := st.Alloc[fl]
		weights := st.Weights(fl)
		first := len(tas)
		for _, t := range tun.Tunnels(fl) {
			h := len(hops)
			for _, sw := range t.Switches {
				hops = append(hops, net.Switches[sw].Name)
			}
			ta := TunnelAlloc{Path: hops[h:len(hops):len(hops)]}
			if t.Index < len(alloc) {
				ta.Alloc = alloc[t.Index]
				ta.Weight = weights[t.Index]
			}
			tas = append(tas, ta)
		}
		if len(tas) > first {
			sf.Tunnels = tas[first:len(tas):len(tas)]
		}
		out.Flows = append(out.Flows, sf)
	}
	return out
}
