package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendState appends sf as compact JSON to dst, byte for byte what
// json.Marshal(sf) writes: the same field order, nil lists as null, floats
// formatted as encoding/json formats them, and strings escaped as it
// escapes them (HTML-safe, U+2028/U+2029 escaped, invalid UTF-8 replaced by
// U+FFFD). Like json.Marshal it refuses NaN and ±Inf. A plan is installed
// once and served many times: this writes it without reflection and
// without json.Marshal's re-validation of its own output.
func AppendState(dst []byte, sf *StateFile) ([]byte, error) {
	var err error
	num := func(b []byte, f float64) []byte {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			if err == nil {
				err = fmt.Errorf("wire: encoding state: unsupported value %v", f)
			}
			return b
		}
		return appendFloat(b, f)
	}
	dst = append(dst, `{"total_demand":`...)
	dst = num(dst, sf.TotalDemand)
	dst = append(dst, `,"total_rate":`...)
	dst = num(dst, sf.TotalRate)
	dst = append(dst, `,"flows":`...)
	if sf.Flows == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range sf.Flows {
			f := &sf.Flows[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"src":`...)
			dst = appendString(dst, f.Src)
			dst = append(dst, `,"dst":`...)
			dst = appendString(dst, f.Dst)
			dst = append(dst, `,"demand":`...)
			dst = num(dst, f.Demand)
			dst = append(dst, `,"rate":`...)
			dst = num(dst, f.Rate)
			dst = append(dst, `,"tunnels":`...)
			if f.Tunnels == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for k := range f.Tunnels {
					t := &f.Tunnels[k]
					if k > 0 {
						dst = append(dst, ',')
					}
					dst = append(dst, `{"path":`...)
					if t.Path == nil {
						dst = append(dst, "null"...)
					} else {
						dst = append(dst, '[')
						for h, name := range t.Path {
							if h > 0 {
								dst = append(dst, ',')
							}
							dst = appendString(dst, name)
						}
						dst = append(dst, ']')
					}
					dst = append(dst, `,"alloc":`...)
					dst = num(dst, t.Alloc)
					dst = append(dst, `,"weight":`...)
					dst = num(dst, t.Weight)
					dst = append(dst, '}')
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	return dst, err
}

// appendFloat formats a finite f as encoding/json does: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent not padded ("1e-7", not "1e-07").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped the way json.Marshal
// escapes it.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
