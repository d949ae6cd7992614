// Domain scenario: filling an FPGA-like design (the paper's Design B).
//
// FPGA fabrics are the classic dummy-fill stress case: dense logic tiles
// next to sparse routing channels create periodic density steps that the
// CMP pad turns into surface waves.  This example compares the rule-based
// baselines against NeurFill on such a fabric and prints a Table-III-style
// summary.
//
// Usage: fpga_fill [surrogate_prefix] [windows]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "fill/pipeline.hpp"
#include "fill/report.hpp"
#include "geom/designs.hpp"
#include "surrogate/provider.hpp"

using namespace neurfill;

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "data/unet_cmp";
  const int windows = argc > 2 ? std::atoi(argv[2]) : 24;

  const Layout layout = make_design('b', windows, 100.0, /*seed=*/2);
  const FillProblem problem =
      make_fill_problem(layout, ExtractOptions(), CmpProcessParams());
  const WindowExtraction& ext = problem.extraction();

  SurrogateProvider provider;
  Expected<std::shared_ptr<const CmpSurrogate>> surrogate =
      provider.get(prefix, ext, problem.simulator());
  if (!surrogate.ok()) {
    std::fprintf(stderr, "error: %s\n", surrogate.error().to_string().c_str());
    return 1;
  }

  std::printf("FPGA fabric: %d x %d windows, 3 layers\n", windows, windows);
  print_coefficients(std::cout, problem.coefficients());
  print_table3_header(std::cout);

  // One request, three methods: the rule baselines ignore the surrogate.
  FillRequest request;
  request.tao.sqp.max_iterations = 30;
  request.surrogate = *surrogate;
  FillRunResult pkb;
  for (const char* method : {"lin", "tao", "pkb"}) {
    request.method = method;
    FillRunResult run = run_fill(problem, request);
    print_table3_row(std::cout, "B", score_fill_result(problem, layout, run));
    if (request.method == "pkb") pkb = std::move(run);
  }

  // Where did the fill go?  Report per-layer fill density in tiles vs
  // channels (rows through the middle of the fabric).
  double tile_fill = 0.0, channel_fill = 0.0;
  std::size_t tile_n = 0, channel_n = 0;
  for (std::size_t l = 0; l < ext.num_layers(); ++l) {
    for (std::size_t k = 0; k < pkb.x[l].size(); ++k) {
      const double rho = ext.layers[l].wire_density[k];
      if (rho > 0.4) {
        tile_fill += pkb.x[l][k];
        ++tile_n;
      } else if (rho < 0.2) {
        channel_fill += pkb.x[l][k];
        ++channel_n;
      }
    }
  }
  if (tile_n && channel_n)
    std::printf("\nNeurFill placed %.3f fill density in sparse channels vs "
                "%.3f in dense tiles (expected: channels >> tiles)\n",
                channel_fill / static_cast<double>(channel_n),
                tile_fill / static_cast<double>(tile_n));
  return 0;
}
