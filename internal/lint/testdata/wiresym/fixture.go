package fixture

// A miniature codec in the shape of internal/wire: message structs, an
// AppendEncode type switch, and a Decode switch over KindX constants.

type Kind uint8

const (
	KindPing Kind = iota + 1
	KindPong
	KindBye
)

type Message interface{ Kind() Kind }

type Ping struct {
	Seq  uint64
	Echo string
}

func (Ping) Kind() Kind { return KindPing }

type Pong struct {
	Seq     uint64
	Payload []byte
	Dropped bool
}

func (Pong) Kind() Kind { return KindPong }

type Bye struct {
	Seq uint64
}

func (Bye) Kind() Kind { return KindBye }

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)     {}
func (e *encoder) u64(v uint64)   {}
func (e *encoder) str(s string)   {}
func (e *encoder) bytes(b []byte) {}
func (e *encoder) bool(v bool)    {}

type decoder struct{ buf []byte }

func (d *decoder) u8() uint8     { return 0 }
func (d *decoder) u64() uint64   { return 0 }
func (d *decoder) str() string   { return "" }
func (d *decoder) bytes() []byte { return nil }
func (d *decoder) bool() bool    { return false }
func (d *decoder) finish() error { return nil }

func AppendEncode(dst []byte, m Message) ([]byte, error) {
	e := encoder{buf: dst}
	e.u8(uint8(m.Kind()))
	switch v := m.(type) {
	case Ping:
		e.u64(v.Seq)
		e.str(v.Echo)
	case Pong: // want `Encode case Pong does not reference field Pong\.Dropped`
		e.u64(v.Seq)
		e.bytes(v.Payload)
	case Bye: // want `Decode has no KindBye case`
		e.u64(v.Seq)
	}
	return e.buf, nil
}

func Decode(buf []byte) (Message, error) {
	d := decoder{buf: buf}
	switch Kind(d.u8()) {
	case KindPing: // want `Decode case KindPing does not reference field Ping\.Echo`
		m := Ping{Seq: d.u64()}
		return m, d.finish()
	case KindPong:
		m := Pong{Seq: d.u64(), Payload: d.bytes()}
		m.Dropped = d.bool()
		return m, d.finish()
	}
	return nil, nil
}
