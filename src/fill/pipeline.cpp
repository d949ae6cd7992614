#include "fill/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace neurfill {

bool is_fill_method(const std::string& method) {
  return std::find(kFillMethods.begin(), kFillMethods.end(), method) !=
         kFillMethods.end();
}

bool is_model_based(const std::string& method) {
  return method == "pkb" || method == "mm";
}

FillProblem make_fill_problem(const Layout& layout,
                              const ExtractOptions& extract,
                              const CmpProcessParams& process) {
  WindowExtraction ext = extract_windows(layout, extract);
  CmpProcessParams params = process;
  params.window_um = extract.window_um;
  CmpSimulator sim(params);
  ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  return FillProblem(std::move(ext), std::move(sim), std::move(coeffs));
}

FillRunResult run_fill(const FillProblem& problem, const FillRequest& request) {
  const std::string& method = request.method;
  if (method == "lin") return lin_rule_fill(problem);
  if (method == "tao") {
    TaoOptions topt = request.tao;
    topt.sqp.deadline = request.neurfill.deadline;
    return tao_rule_sqp(problem, topt);
  }
  if (method == "cai") {
    CaiOptions copt = request.cai;
    copt.sqp.deadline = request.neurfill.deadline;
    return cai_model_fill(problem, copt);
  }
  if (!is_model_based(method))
    throw ErrorException(Error(ErrorCode::kInvalidArgument, "fill.pipeline",
                               "unknown method '" + method +
                                   "' (expected lin|tao|cai|pkb|mm)"));
  if (!request.surrogate)
    throw ErrorException(Error(ErrorCode::kInvalidArgument, "fill.pipeline",
                               "method '" + method + "' needs a surrogate"));
  CmpNetwork network(request.surrogate, problem.extraction(),
                     problem.coefficients());
  calibrate_network(network, problem);
  return method == "pkb" ? neurfill_pkb(problem, network, request.neurfill)
                         : neurfill_mm(problem, network, request.neurfill);
}

}  // namespace neurfill
