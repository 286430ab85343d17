package core

import "strings"

// IsoProps is the set of isolation properties requested for one side of
// an entry point (§5.2.3). Each property protects one sensitive resource
// for integrity (trusting the peer to follow the ABI) and/or
// confidentiality (trusting the peer with private data).
type IsoProps uint8

// Isolation properties.
const (
	// RegIntegrity saves live registers around the call (user stub).
	RegIntegrity IsoProps = 1 << iota
	// RegConfidentiality zeroes non-argument registers before the call
	// and non-result registers after it (user stub).
	RegConfidentiality
	// StackIntegrity creates capabilities for the in-stack arguments
	// and the unused stack area around the call (user stub).
	StackIntegrity
	// StackConfIntegrity splits data stacks between the domains,
	// copying arguments and results by signature (trusted proxy).
	StackConfIntegrity
	// DCSIntegrity raises the DCS base register to hide non-argument
	// capability entries (trusted proxy). Modeled as cost only: the
	// proxy charges DCSAdjust, and no capability stack is simulated.
	DCSIntegrity
	// DCSConfIntegrity gives the callee a separate capability stack
	// (trusted proxy; callee side only). Modeled as cost only: the proxy
	// charges DCSSwitch plus a CapLoadStore per capability argument and
	// result of the signature.
	DCSConfIntegrity
)

// Has reports whether all properties in mask are present.
func (p IsoProps) Has(mask IsoProps) bool { return p&mask == mask }

// String lists the property names.
func (p IsoProps) String() string {
	if p == 0 {
		return "none"
	}
	names := []struct {
		bit  IsoProps
		name string
	}{
		{RegIntegrity, "reg-integ"},
		{RegConfidentiality, "reg-conf"},
		{StackIntegrity, "stack-integ"},
		{StackConfIntegrity, "stack-conf+integ"},
		{DCSIntegrity, "dcs-integ"},
		{DCSConfIntegrity, "dcs-conf+integ"},
	}
	var out []string
	for _, n := range names {
		if p.Has(n.bit) {
			out = append(out, n.name)
		}
	}
	return strings.Join(out, "|")
}

// Policy presets used throughout the evaluation (Fig. 5).
var (
	// PolicyLow is the minimal non-trivial policy: the proxy's own
	// control-flow guarantees (P2/P3) with no extra state isolation.
	PolicyLow IsoProps = 0
	// PolicyHigh is equivalent to full mutual process isolation.
	PolicyHigh = RegIntegrity | RegConfidentiality | StackConfIntegrity |
		DCSIntegrity | DCSConfIntegrity
)

// mergedPolicy resolves the effective properties of a call from the
// caller-requested and callee-registered sides, per §5.2.3:
//
//   - stack and DCS confidentiality activate when either side asks;
//   - integrity-only properties activate only when the caller asks;
//   - register and stack-integrity stubs run on the side that asked.
type mergedPolicy struct {
	callerStub IsoProps // properties implemented in the caller's stub
	calleeStub IsoProps // properties implemented in the callee's stub
	proxy      IsoProps // properties implemented in the trusted proxy
}

func merge(caller, callee IsoProps) mergedPolicy {
	var mp mergedPolicy
	// User-stub properties: each side gets what it requested.
	mp.callerStub = caller & (RegIntegrity | RegConfidentiality | StackIntegrity)
	mp.calleeStub = callee & (RegIntegrity | RegConfidentiality | StackIntegrity)
	// Proxy properties.
	if (caller | callee).Has(StackConfIntegrity) {
		mp.proxy |= StackConfIntegrity
	}
	if caller.Has(DCSIntegrity) {
		mp.proxy |= DCSIntegrity
	}
	if callee.Has(DCSConfIntegrity) {
		mp.proxy |= DCSConfIntegrity
	}
	return mp
}
