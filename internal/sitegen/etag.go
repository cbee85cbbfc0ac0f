// Entity tags. Every page the system serves — a generated page, the
// static listing, a click-time page — carries a strong HTTP ETag that
// is the hash of the bytes it validates. A strong validator should
// change only when stored responses must be invalidated (RFC 9110
// §8.8.1), and stored responses are bytes: a page the incremental
// regenerator re-renders to identical bytes keeps its tag, so
// conditional requests for it keep answering 304 across a site swap.
// The tag is a pure function of the body, so it is identical across
// worker counts and between a from-scratch build and a delta rebuild
// of equal content; two bodies share a tag only through a collision of
// SHA-256 truncated to 160 bits.
package sitegen

import (
	"crypto/sha256"
	"encoding/hex"
)

// BytesETag is the strong entity tag of body in HTTP wire form, quotes
// included: the first 160 bits of its SHA-256.
func BytesETag(body string) string {
	sum := sha256.Sum256([]byte(body))
	return `"` + hex.EncodeToString(sum[:20]) + `"`
}
