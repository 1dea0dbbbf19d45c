#!/usr/bin/env bash
# Fails if the Go compiler fuses a floating-point multiply and add (one
# rounding instead of two) at any source line of this module's non-test
# packages, on any architecture below, and prints each such file:line. amd64
# never fuses, so a fused line would compute a simulated number that depends
# on the host's CPU. Write the product with an explicit conversion,
# float64(x*y) + z, which the Go spec forbids fusing.
#
# A throwaway probe runs first: every probe line the compiler fuses (its
# multiply is gone) must be flagged, so a wrong mnemonic list cannot pass.
#
# Usage, from the module root: bash .github/nofma.sh
set -euo pipefail

arches="arm64 ppc64le s390x riscv64"
fused='^F(N)?M(ADD|SUB)[DS]?$' # FMADD, FMADDD, FNMSUBS, ... on all four

# listing ARCH DIR prints "file:line op" for each instruction the compiler
# emits for the packages under DIR, from its -S listing.
listing() {
	(cd "$2" && GOARCH=$1 go build -gcflags=-S ./... 2>&1) |
		sed -nE 's/^[[:space:]]+0x[0-9a-f]+ [0-9]+ \(([^)]+)\)[[:space:]]+([A-Z0-9.]+).*/\1 \2/p'
}

probe=$(mktemp -d)
trap 'rm -rf "$probe"' EXIT
printf 'module probe\n\ngo 1.24\n' > "$probe/go.mod"
cat > "$probe/probe.go" <<'GO'
package probe

func MulAdd(x, y, z float64) float64    { return x*y + z }
func MulSub(x, y, z float64) float64    { return x*y - z }
func SubMul(x, y, z float64) float64    { return z - x*y }
func NegMulSub(x, y, z float64) float64 { return -(x * y) - z }
GO
for arch in $arches; do
	# Lines 3-6 hold the four forms; x*y + z fuses on every architecture here.
	listing "$arch" "$probe" | awk -v fused="$fused" -v arch="$arch" '
		{ n = split($1, p, ":"); l = p[n] }
		$2 ~ /^FMUL/ { mul[l] = 1 }
		$2 ~ fused { hit[l] = 1 }
		END {
			for (l = 3; l <= 6; l++)
				if (!hit[l] && (!mul[l] || l == 3)) {
					print arch ": the probe fuses line " l " and the pattern misses it"
					bad = 1
				}
			exit bad
		}'
done

root=$PWD/
for arch in $arches; do
	listing "$arch" . | awk -v fused="$fused" -v root="$root" -v arch="$arch" '
		index($1, root) == 1 && $2 ~ fused { print substr($1, length(root) + 1); n++ }
		END { if (n) print arch ": " n " fused instruction(s)" > "/dev/stderr" }'
done | sort -u > "$probe/fused.txt"
if [ -s "$probe/fused.txt" ]; then
	echo "fused multiply-adds on $(wc -l < "$probe/fused.txt") source line(s); write float64(x*y) + z:"
	cat "$probe/fused.txt"
	exit 1
fi
echo "no fused multiply-add on $arches"
