package spp

// Test-only exports for the external spp_test package.
var (
	ClassicAnalyze      = classicAnalyze
	RequireSameAnalysis = requireSameAnalysis
)
