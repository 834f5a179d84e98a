// Batch linking pipeline a downstream user would run on their own data:
//
//   1. read two RDF knowledge bases from N-Triples files,
//   2. produce initial candidate links with the PARIS linker,
//   3. refine them with ALEX driven by feedback (here: a ground-truth file;
//      in production: user feedback on federated query answers),
//   4. write the final owl:sameAs links as N-Triples.
//
// Usage:
//   linking_pipeline <left.nt> <right.nt> [truth.nt] [out.nt]
//
// Without arguments the example generates a demo pair, writes it to
// /tmp/alex_demo_{left,right,truth}.nt, and runs on those files — so it
// also demonstrates the RDF I/O round trip.

#include <fstream>
#include <iostream>

#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "feedback/oracle.h"
#include "paris/paris.h"
#include "rdf/ntriples.h"
#include "common/logging.h"

namespace {

using namespace alex;

bool WriteDatasetFile(const rdf::Dataset& ds, const std::string& path) {
  std::ofstream out(path);
  return out && rdf::WriteNTriples(ds.store(), ds.dict(), out).ok();
}

bool LoadDataset(const std::string& path, rdf::Dataset* ds) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  Status s = rdf::ReadNTriples(in, &ds->dict(), &ds->store());
  if (!s.ok()) {
    std::cerr << path << ": " << s << "\n";
    return false;
  }
  ds->BuildEntityIndex();
  return true;
}

/// Reads a ground-truth file of `<left> owl:sameAs <right> .` triples.
bool LoadTruth(const std::string& path, const rdf::Dataset& left,
               const rdf::Dataset& right, feedback::GroundTruth* truth) {
  rdf::Dataset links("truth");
  if (!LoadDataset(path, &links)) return false;
  auto same_as = links.dict().Lookup(rdf::Term::Iri(std::string(rdf::kOwlSameAs)));
  if (!same_as) return true;  // No links.
  links.store().ForEachMatch(
      rdf::TriplePattern{rdf::kInvalidTermId, *same_as, rdf::kInvalidTermId},
      [&](const rdf::Triple& t) {
        auto l = left.FindEntityByIri(links.dict().term(t.subject).value);
        auto r = right.FindEntityByIri(links.dict().term(t.object).value);
        if (l && r) truth->Add(*l, *r);
        return true;
      });
  return true;
}

void MakeDemoFiles(std::string* left_path, std::string* right_path,
                   std::string* truth_path) {
  datagen::ScenarioConfig config;
  config.name = "demo";
  config.seed = 2024;
  config.num_shared = 150;
  config.num_left_only = 100;
  config.num_right_only = 50;
  config.domains = {"person", "organization"};
  config.value_noise = 0.5;
  config.ambiguity = 0.3;
  datagen::GeneratedPair pair = datagen::GenerateScenario(config);

  *left_path = "/tmp/alex_demo_left.nt";
  *right_path = "/tmp/alex_demo_right.nt";
  *truth_path = "/tmp/alex_demo_truth.nt";
  WriteDatasetFile(pair.left, *left_path);
  WriteDatasetFile(pair.right, *right_path);
  std::ofstream truth(*truth_path);
  for (feedback::PairKey key : pair.truth.pairs()) {
    truth << "<" << pair.left.entity_iri(feedback::PairLeft(key)) << "> <"
          << rdf::kOwlSameAs << "> <"
          << pair.right.entity_iri(feedback::PairRight(key)) << "> .\n";
  }
  std::cout << "Demo data written to /tmp/alex_demo_{left,right,truth}.nt\n";
}

}  // namespace

int main(int argc, char** argv) {
  alex::InitLoggingFromEnv();
  std::string left_path, right_path, truth_path, out_path = "/tmp/alex_links.nt";
  if (argc >= 3) {
    left_path = argv[1];
    right_path = argv[2];
    if (argc >= 4) truth_path = argv[3];
    if (argc >= 5) out_path = argv[4];
  } else {
    MakeDemoFiles(&left_path, &right_path, &truth_path);
  }

  rdf::Dataset left("left");
  rdf::Dataset right("right");
  if (!LoadDataset(left_path, &left) || !LoadDataset(right_path, &right)) {
    return 1;
  }
  std::cout << "Loaded " << left.num_entities() << " + "
            << right.num_entities() << " entities ("
            << left.num_triples() + right.num_triples() << " triples)\n";

  // 1. Initial candidate links.
  paris::ParisLinker linker(&left, &right);
  const std::vector<paris::ScoredLink> initial = linker.Run();
  std::cout << "PARIS produced " << initial.size() << " candidate links\n";

  // 2. ALEX refinement (needs feedback — here simulated from ground truth).
  feedback::GroundTruth truth;
  if (!truth_path.empty() && !LoadTruth(truth_path, left, right, &truth)) {
    return 1;
  }
  core::AlexConfig config;
  config.episode_size = 200;
  config.num_partitions = 8;
  core::PartitionedAlex alex(&left, &right, config);
  alex.Build();
  alex.InitializeCandidates(initial);

  if (!truth.empty()) {
    feedback::Oracle oracle(&truth, 0.0, 1);
    std::unordered_set<feedback::PairKey> previous = alex.Candidates();
    for (size_t episode = 1; episode <= config.max_episodes; ++episode) {
      for (size_t i = 0; i < config.episode_size; ++i) {
        auto item = oracle.SampleAndJudge(
            alex.NumCandidates(),
            [&](size_t k) { return alex.CandidateAt(k); });
        if (!item) break;
        alex.ProcessFeedback(*item);
      }
      alex.EndEpisode();
      const auto current = alex.Candidates();
      const auto metrics = core::ComputeMetrics(current, truth);
      std::cout << "episode " << episode << ": P=" << metrics.precision
                << " R=" << metrics.recall << " F=" << metrics.f_measure
                << " links=" << current.size() << "\n";
      if (current == previous) {
        std::cout << "converged\n";
        break;
      }
      previous = current;
    }
  } else {
    std::cout << "(no ground truth given: skipping the feedback loop; "
                 "PARIS links pass through)\n";
  }

  // 3. Export owl:sameAs links.
  std::ofstream out(out_path);
  size_t exported = 0;
  for (feedback::PairKey key : alex.Candidates()) {
    out << "<" << left.entity_iri(feedback::PairLeft(key)) << "> <"
        << rdf::kOwlSameAs << "> <"
        << right.entity_iri(feedback::PairRight(key)) << "> .\n";
    ++exported;
  }
  std::cout << "Wrote " << exported << " owl:sameAs links to " << out_path
            << "\n";
  return 0;
}
