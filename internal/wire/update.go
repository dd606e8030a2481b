package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Update ops accepted by the ffcd streaming protocol. Each newline-delimited
// JSON frame carries exactly one op.
const (
	// UpdateDemands merges (or, with Reset, replaces) per-flow demands.
	UpdateDemands = "demands"
	// UpdateLink marks a physical link (both directions) down or up.
	UpdateLink = "link"
	// UpdateSwitch marks a switch down or up.
	UpdateSwitch = "switch"
	// UpdateProtection changes the FFC protection level.
	UpdateProtection = "protection"
)

// maxProtection caps kc/ke/kv in protection updates, trace records and
// snapshots: far above any useful level, low enough that a hostile input
// cannot request an astronomically large sorting-network formulation.
const maxProtection = 256

// Update is one streamed controller update — the mutating half of the ffcd
// protocol (queries are answered by the server from the installed plan and
// never reach the solver). Fields are op-specific; ParseUpdate enforces
// which ones each op requires.
type Update struct {
	Op string `json:"op"`

	// UpdateDemands: entries to merge into the demand matrix. Reset replaces
	// the whole matrix instead of merging (an empty Reset update clears it).
	Demands []DemandEntry `json:"demands,omitempty"`
	Reset   bool          `json:"reset,omitempty"`

	// UpdateLink: endpoint switch names of the physical link.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`

	// UpdateSwitch: the switch name.
	Switch string `json:"switch,omitempty"`

	// UpdateLink / UpdateSwitch: the element's new liveness.
	Up *bool `json:"up,omitempty"`

	// UpdateProtection: new protection levels; absent fields keep their
	// current value.
	Kc *int `json:"kc,omitempty"`
	Ke *int `json:"ke,omitempty"`
	Kv *int `json:"kv,omitempty"`
}

// ParseUpdate decodes and validates one update frame. It is purely
// syntactic — switch and link names are resolved by the controller against
// its topology — but everything else is checked here: unknown ops, unknown
// fields, trailing garbage, missing required fields, and out-of-range
// numbers all error. A malformed frame must never panic; this function is
// fuzzed (FuzzParseUpdate).
func ParseUpdate(data []byte) (*Update, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var u Update
	if err := dec.Decode(&u); err != nil {
		return nil, fmt.Errorf("wire: parsing update: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("wire: parsing update: trailing data after frame")
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &u, nil
}

// Validate checks op-specific required fields and value ranges.
func (u *Update) Validate() error {
	switch u.Op {
	case UpdateDemands:
		if len(u.Demands) == 0 && !u.Reset {
			return fmt.Errorf("wire: demands update carries no entries (and no reset)")
		}
		for i, d := range u.Demands {
			if d.Src == "" || d.Dst == "" {
				return fmt.Errorf("wire: demands update entry %d: missing src/dst", i)
			}
			if d.Src == d.Dst {
				return fmt.Errorf("wire: demands update entry %d: src == dst (%q)", i, d.Src)
			}
			if err := checkRate("demand", d.Demand); err != nil {
				return fmt.Errorf("wire: demands update entry %d: %w", i, err)
			}
		}
	case UpdateLink:
		if u.Src == "" || u.Dst == "" {
			return fmt.Errorf("wire: link update: missing src/dst")
		}
		if u.Src == u.Dst {
			return fmt.Errorf("wire: link update: src == dst (%q)", u.Src)
		}
		if u.Up == nil {
			return fmt.Errorf("wire: link update: missing up")
		}
	case UpdateSwitch:
		if u.Switch == "" {
			return fmt.Errorf("wire: switch update: missing switch")
		}
		if u.Up == nil {
			return fmt.Errorf("wire: switch update: missing up")
		}
	case UpdateProtection:
		if u.Kc == nil && u.Ke == nil && u.Kv == nil {
			return fmt.Errorf("wire: protection update changes nothing")
		}
		for _, f := range []struct {
			name string
			v    *int
		}{{"kc", u.Kc}, {"ke", u.Ke}, {"kv", u.Kv}} {
			if f.v == nil {
				continue
			}
			if err := checkLevel(f.name, *f.v); err != nil {
				return fmt.Errorf("wire: protection update: %w", err)
			}
		}
	case "":
		return fmt.Errorf("wire: update frame missing op")
	default:
		return fmt.Errorf("wire: unknown update op %q", u.Op)
	}
	return nil
}

// EncodeUpdate renders an update as one protocol frame (no trailing
// newline; the transport adds framing).
func EncodeUpdate(u *Update) ([]byte, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(u)
}
