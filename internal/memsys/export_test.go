package memsys

import "codecomp/internal/policy"

// BulkAdmission and EvaluateUnder let the tests score reference bulk
// admission rules on the same model as the serving stack's.
type BulkAdmission = bulkAdmission

func EvaluateUnder(accesses []Access, numBlocks int, pf policy.Prefetcher, cfg PolicyConfig, bulk BulkAdmission) (PolicyStats, error) {
	return evaluate(accesses, numBlocks, pf, cfg, bulk)
}
