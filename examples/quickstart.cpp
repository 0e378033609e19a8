// Quickstart: aggregate a handful of gradient vectors with every rule in
// the library, with two of the vectors Byzantine, and measure each output's
// approximation of the true geometric median (Definition 3.3).
//
//   ./examples/quickstart

#include <iostream>

#include "core/bcl.hpp"

int main() {
  using namespace bcl;

  // Eight honest 3-dimensional "gradients" clustered around (1, -1, 0.5).
  Rng rng(2024);
  VectorList honest;
  for (int i = 0; i < 8; ++i) {
    honest.push_back({1.0 + rng.gaussian(0.0, 0.2),
                      -1.0 + rng.gaussian(0.0, 0.2),
                      0.5 + rng.gaussian(0.0, 0.2)});
  }

  // Two Byzantine vectors try to drag the aggregate away.
  VectorList received = honest;
  received.push_back({50.0, 50.0, 50.0});
  received.push_back({-40.0, 60.0, -10.0});

  AggregationContext ctx;
  ctx.n = received.size();  // n = 10 clients
  ctx.t = 2;                // tolerate up to 2 Byzantine

  const Vector mu_star = geometric_median_point(GradientBatch::from(honest));
  std::cout << "True geometric median of the honest vectors: ("
            << mu_star[0] << ", " << mu_star[1] << ", " << mu_star[2]
            << ")\n\n";

  Table table({"rule", "out[0]", "out[1]", "out[2]", "dist to mu*",
               "ratio (Def 3.3)"});
  for (const auto& name : all_rule_names()) {
    const auto rule = make_rule(name);
    const Vector out = rule->aggregate(received, ctx);
    const auto report = measure_geo_approximation(received, honest, ctx.t, out);
    table.new_row()
        .add(name)
        .add_num(out[0], 3)
        .add_num(out[1], 3)
        .add_num(out[2], 3)
        .add_num(report.distance_to_true, 4)
        .add_num(report.ratio, 3);
  }
  table.print(std::cout);

  std::cout << "\nNote how MEAN is dragged by the outliers while the robust\n"
               "rules stay near mu*; BOX-GEOM is the paper's Algorithm 2\n"
               "with a 2*sqrt(d) worst-case guarantee.\n";
  return 0;
}
