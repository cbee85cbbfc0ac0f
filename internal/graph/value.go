// Package graph implements STRUDEL's semistructured data model: labeled
// directed graphs in the style of OEM. A database consists of a set of
// graphs; each graph consists of objects connected by directed edges
// labeled with string-valued attribute names. Objects are either nodes,
// identified by a unique object identifier (OID), or atomic values such
// as integers, strings, URLs and files. Objects are grouped into named
// collections; objects may belong to multiple collections, and objects
// in the same collection may have different representations.
package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// OID identifies a node within a Database. OIDs are never reused.
type OID uint64

// InvalidOID is the zero OID; no node ever has it.
const InvalidOID OID = 0

// Kind discriminates the variants of Value.
type Kind uint8

// The kinds of values that can appear in a graph. KindNode is an
// internal object; the remaining kinds are the atomic types that
// commonly appear in Web pages.
const (
	KindInvalid Kind = iota
	KindNode
	KindInt
	KindFloat
	KindBool
	KindString
	KindURL
	KindFile
)

func (k Kind) String() string {
	switch k {
	case KindNode:
		return "node"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindURL:
		return "url"
	case KindFile:
		return "file"
	default:
		return "invalid"
	}
}

// FileType classifies file-valued atoms. STRUDEL handles several file
// types that commonly appear in Web pages; the HTML generator uses the
// type to pick a rendering rule (e.g. PostScript files become links).
type FileType uint8

// Supported file types.
const (
	FileUnknown FileType = iota
	FilePostScript
	FileText
	FileImage
	FileHTML
)

func (t FileType) String() string {
	switch t {
	case FilePostScript:
		return "postscript"
	case FileText:
		return "text"
	case FileImage:
		return "image"
	case FileHTML:
		return "html"
	default:
		return "file"
	}
}

// FileTypeByName maps a datadef type directive ("postscript", "ps",
// "text", "image", "html") to a FileType. Unknown names map to
// FileUnknown with ok=false.
func FileTypeByName(name string) (FileType, bool) {
	switch strings.ToLower(name) {
	case "postscript", "ps":
		return FilePostScript, true
	case "text", "txt":
		return FileText, true
	case "image", "img":
		return FileImage, true
	case "html":
		return FileHTML, true
	default:
		return FileUnknown, false
	}
}

// Value is one object in a graph: either a node reference or an atomic
// value. Value is a small comparable struct so it can be used directly
// as a map key (indexes, Skolem memo tables, collection membership).
// The three one-byte fields come first and share one word, so a Value
// is 48 bytes: binding rows, collection members and both adjacency
// lists store Values inline.
type Value struct {
	kind Kind
	b    bool     // KindBool
	ft   FileType // KindFile
	oid  OID      // KindNode
	i    int64    // KindInt
	f    float64  // KindFloat
	s    string   // KindString, KindURL, KindFile (path)
}

// NodeValue returns a Value referencing the node with the given OID.
func NodeValue(oid OID) Value { return Value{kind: KindNode, oid: oid} }

// Int returns an integer atom.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point atom.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Bool returns a boolean atom.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// String returns a string atom.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// URL returns a URL atom.
func URL(v string) Value { return Value{kind: KindURL, s: v} }

// File returns a file atom with the given path and type.
func File(path string, t FileType) Value {
	return Value{kind: KindFile, s: path, ft: t}
}

// Kind reports the variant of v.
func (v Value) Kind() Kind { return v.kind }

// IsNode reports whether v references a node.
func (v Value) IsNode() bool { return v.kind == KindNode }

// IsAtom reports whether v is an atomic value.
func (v Value) IsAtom() bool { return v.kind != KindNode && v.kind != KindInvalid }

// IsZero reports whether v is the invalid zero Value.
func (v Value) IsZero() bool { return v.kind == KindInvalid }

// OID returns the node identifier; it panics if v is not a node.
func (v Value) OID() OID {
	if v.kind != KindNode {
		panic("graph: OID called on non-node value " + v.String())
	}
	return v.oid
}

// AsInt returns the integer payload and whether v is an integer atom.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsFloat returns the float payload and whether v is a float atom.
func (v Value) AsFloat() (float64, bool) { return v.f, v.kind == KindFloat }

// AsBool returns the boolean payload and whether v is a boolean atom.
func (v Value) AsBool() (bool, bool) { return v.b, v.kind == KindBool }

// AsString returns the string payload (string, URL or file path) and
// whether v carries one.
func (v Value) AsString() (string, bool) {
	switch v.kind {
	case KindString, KindURL, KindFile:
		return v.s, true
	default:
		return "", false
	}
}

// FileType returns the file type; it is FileUnknown unless v is a file.
func (v Value) FileType() FileType {
	if v.kind != KindFile {
		return FileUnknown
	}
	return v.ft
}

// Text renders the value's payload without type decoration, suitable
// for HTML emission of string-like atoms.
func (v Value) Text() string {
	switch v.kind {
	case KindNode:
		return fmt.Sprintf("&%d", uint64(v.oid))
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindString, KindURL, KindFile:
		return v.s
	default:
		return ""
	}
}

// AppendKey appends v's identity encoding to b and returns the
// extended buffer: the kind byte, then eight bytes of OID, integer or
// float bits, one byte of boolean, or a length-prefixed string (a file
// prefixes its type byte). Two values encode alike exactly when they
// are ==, except that a NaN encodes alike to itself; unlike String,
// Int(5) and Float(5) differ. Binding rows, Skolem arguments and Diff's
// edge sets key by it instead of formatting values.
func (v Value) AppendKey(b []byte) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNode:
		return binary.BigEndian.AppendUint64(b, uint64(v.oid))
	case KindInt:
		return binary.BigEndian.AppendUint64(b, uint64(v.i))
	case KindFloat:
		f := v.f
		if f == 0 {
			f = 0 // -0 == +0
		}
		return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	case KindBool:
		if v.b {
			return append(b, 1)
		}
		return append(b, 0)
	case KindFile:
		b = append(b, byte(v.ft))
	}
	b = binary.AppendUvarint(b, uint64(len(v.s)))
	return append(b, v.s...)
}

// String renders the value with type decoration for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case KindNode:
		return fmt.Sprintf("&%d", uint64(v.oid))
	case KindString:
		return strconv.Quote(v.s)
	case KindURL:
		return "url(" + v.s + ")"
	case KindFile:
		return v.ft.String() + "(" + v.s + ")"
	case KindInvalid:
		return "<invalid>"
	default:
		return v.Text()
	}
}
