// Package topology models the TE input network: switches connected by
// directed capacitated links, as in the paper's G = (V, E). It also ships
// generators for the evaluation networks (§8.1): an L-Net-like wide-area
// network, the S-Net/B4 12-site topology, the 8-site testbed of Figure 9,
// and the small illustrative networks of Figures 2–5.
package topology

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// SwitchID indexes a switch within a Network.
type SwitchID int

// LinkID indexes a directed link within a Network.
type LinkID int

// None marks an absent link reference (e.g. no reverse twin).
const None LinkID = -1

// Switch is one forwarding element.
type Switch struct {
	ID   SwitchID `json:"id"`
	Name string   `json:"name"`
	// Site groups switches that share a physical location; inter-site
	// links dominate propagation delay.
	Site string `json:"site"`
	// Lat and Lon position the site for propagation-delay estimates
	// (degrees).
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Link is a directed capacitated edge.
type Link struct {
	ID       LinkID   `json:"id"`
	Src      SwitchID `json:"src"`
	Dst      SwitchID `json:"dst"`
	Capacity float64  `json:"capacity"` // abstract bandwidth units (Gbps)
	// Twin is the reverse direction of the same physical link, or None.
	// A physical (data-plane) link failure takes out both directions.
	Twin LinkID `json:"twin"`
}

// Network is the TE graph.
type Network struct {
	Name     string   `json:"name"`
	Switches []Switch `json:"switches"`
	Links    []Link   `json:"links"`

	out [][]LinkID // lazily built adjacency
}

// NewNetwork returns an empty named network.
func NewNetwork(name string) *Network { return &Network{Name: name} }

// AddSwitch appends a switch and returns its ID.
func (n *Network) AddSwitch(name, site string, lat, lon float64) SwitchID {
	id := SwitchID(len(n.Switches))
	n.Switches = append(n.Switches, Switch{ID: id, Name: name, Site: site, Lat: lat, Lon: lon})
	n.out = nil
	return id
}

// AddLink appends a single directed link and returns its ID.
func (n *Network) AddLink(src, dst SwitchID, capacity float64) LinkID {
	id := LinkID(len(n.Links))
	n.Links = append(n.Links, Link{ID: id, Src: src, Dst: dst, Capacity: capacity, Twin: None})
	n.out = nil
	return id
}

// AddDuplex appends both directions of a physical link, cross-referencing
// them as twins, and returns the forward direction's ID.
func (n *Network) AddDuplex(a, b SwitchID, capacity float64) LinkID {
	f := n.AddLink(a, b, capacity)
	r := n.AddLink(b, a, capacity)
	n.Links[f].Twin = r
	n.Links[r].Twin = f
	return f
}

// Physical returns the physical identity of directed link l: the lower ID of
// its twin pair, so both directions of a duplex link share one identity (a
// physical, data-plane, failure takes out both).
func (n *Network) Physical(l LinkID) LinkID {
	if tw := n.Links[l].Twin; tw != None && tw < l {
		return tw
	}
	return l
}

// PhysicalLinks returns one directed link per physical link, the one whose
// ID is its physical identity, in ID order.
func (n *Network) PhysicalLinks() []LinkID {
	var out []LinkID
	for _, l := range n.Links {
		if n.Physical(l.ID) == l.ID {
			out = append(out, l.ID)
		}
	}
	return out
}

// NumSwitches returns |V|.
func (n *Network) NumSwitches() int { return len(n.Switches) }

// NumLinks returns |E| (directed).
func (n *Network) NumLinks() int { return len(n.Links) }

func (n *Network) buildAdj() {
	if n.out != nil {
		return
	}
	n.out = make([][]LinkID, len(n.Switches))
	for _, l := range n.Links {
		n.out[l.Src] = append(n.out[l.Src], l.ID)
	}
}

// OutLinks returns the IDs of links leaving v.
func (n *Network) OutLinks(v SwitchID) []LinkID {
	n.buildAdj()
	return n.out[v]
}

// FindLink returns the first link src→dst, or None.
func (n *Network) FindLink(src, dst SwitchID) LinkID {
	n.buildAdj()
	for _, id := range n.out[src] {
		if n.Links[id].Dst == dst {
			return id
		}
	}
	return None
}

// LinkName labels directed link l "src>dst" by its endpoint switch names —
// the one label certificates, verdicts and scenario files carry.
func (n *Network) LinkName(l LinkID) string {
	lk := n.Links[l]
	return n.Switches[lk.Src].Name + ">" + n.Switches[lk.Dst].Name
}

// LinkEnds splits a LinkName label into its endpoint switch names.
func LinkEnds(name string) (src, dst string) {
	src, dst, _ = strings.Cut(name, ">")
	return src, dst
}

// LinkByName is LinkName's inverse: the first link src→dst of a
// "src>dst" label, or None.
func (n *Network) LinkByName(name string) LinkID {
	src, dst := LinkEnds(name)
	s, ok1 := n.SwitchByName(src)
	d, ok2 := n.SwitchByName(dst)
	if !ok1 || !ok2 {
		return None
	}
	return n.FindLink(s, d)
}

// SwitchByName returns the switch with the given name.
func (n *Network) SwitchByName(name string) (SwitchID, bool) {
	for _, s := range n.Switches {
		if s.Name == name {
			return s.ID, true
		}
	}
	return -1, false
}

// Clone deep-copies the network.
func (n *Network) Clone() *Network {
	c := &Network{Name: n.Name}
	c.Switches = append([]Switch(nil), n.Switches...)
	c.Links = append([]Link(nil), n.Links...)
	return c
}

// Validate checks internal consistency: link endpoints exist, twins are
// mutual, capacities are positive.
func (n *Network) Validate() error {
	for _, l := range n.Links {
		if l.Src < 0 || int(l.Src) >= len(n.Switches) || l.Dst < 0 || int(l.Dst) >= len(n.Switches) {
			return fmt.Errorf("topology: link %d endpoints (%d,%d) out of range", l.ID, l.Src, l.Dst)
		}
		if l.Src == l.Dst {
			return fmt.Errorf("topology: link %d is a self-loop at switch %d", l.ID, l.Src)
		}
		if l.Capacity <= 0 {
			return fmt.Errorf("topology: link %d has non-positive capacity %g", l.ID, l.Capacity)
		}
		if l.Twin != None {
			if l.Twin < 0 || int(l.Twin) >= len(n.Links) {
				return fmt.Errorf("topology: link %d twin %d out of range", l.ID, l.Twin)
			}
			t := n.Links[l.Twin]
			if t.Twin != l.ID || t.Src != l.Dst || t.Dst != l.Src {
				return fmt.Errorf("topology: link %d twin %d is not its reverse", l.ID, l.Twin)
			}
		}
	}
	return nil
}

// Connected reports whether the network is strongly connected when every
// duplex link is traversable both ways.
func (n *Network) Connected() bool {
	if len(n.Switches) == 0 {
		return true
	}
	n.buildAdj()
	seen := make([]bool, len(n.Switches))
	stack := []SwitchID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range n.out[v] {
			d := n.Links[id].Dst
			if !seen[d] {
				seen[d] = true
				count++
				stack = append(stack, d)
			}
		}
	}
	return count == len(n.Switches)
}

// TotalCapacity sums directed link capacities.
func (n *Network) TotalCapacity() float64 {
	var s float64
	for _, l := range n.Links {
		s += l.Capacity
	}
	return s
}

// MarshalJSON implements json.Marshaler (adjacency caches excluded).
func (n *Network) MarshalJSON() ([]byte, error) {
	type wire struct {
		Name     string   `json:"name"`
		Switches []Switch `json:"switches"`
		Links    []Link   `json:"links"`
	}
	return json.Marshal(wire{n.Name, n.Switches, n.Links})
}

// UnmarshalJSON implements json.Unmarshaler.
func (n *Network) UnmarshalJSON(b []byte) error {
	type wire struct {
		Name     string   `json:"name"`
		Switches []Switch `json:"switches"`
		Links    []Link   `json:"links"`
	}
	var w wire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	n.Name, n.Switches, n.Links = w.Name, w.Switches, w.Links
	n.out = nil
	return n.Validate()
}

// GeoDistanceKm returns the great-circle distance between two switches'
// sites in kilometres.
func (n *Network) GeoDistanceKm(a, b SwitchID) float64 {
	const earthRadiusKm = 6371
	sa, sb := n.Switches[a], n.Switches[b]
	lat1, lon1 := sa.Lat*math.Pi/180, sa.Lon*math.Pi/180
	lat2, lon2 := sb.Lat*math.Pi/180, sb.Lon*math.Pi/180
	dlat, dlon := lat2-lat1, lon2-lon1
	h := math.Sin(dlat/2)*math.Sin(dlat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dlon/2)*math.Sin(dlon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}
