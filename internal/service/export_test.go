package service

// For package service_test, whose tests import packages that import service.
var (
	PlanColdFederation = planColdFederation
	// ColdPlanTemplates holds each plan_cold template's name and text.
	ColdPlanTemplates = func() (out [][2]string) {
		for _, tpl := range coldPlanTemplates {
			out = append(out, [2]string{tpl.name, tpl.src})
		}
		return out
	}()
)
