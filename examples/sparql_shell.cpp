// Command-line SPARQL runner over local RDF files — the "query side" of the
// library as a standalone tool.
//
// Usage:
//   sparql_shell <data.(nt|ttl)> [--json|--tsv] [query...]
//   sparql_shell --federate <left.nt> <right.nt> <links.nt> [query...]
//
// With no query argument, queries are read from stdin (one per line; blank
// line or EOF ends the session). The optional links file holds
// `<left> owl:sameAs <right> .` triples for federated mode.
//
// Examples (one command each; indented lines continue it):
//   ./build/examples/linking_pipeline          # writes /tmp/alex_demo_*.nt
//   ./build/examples/sparql_shell /tmp/alex_demo_left.nt
//       'SELECT ?s ?n WHERE { ?s <http://dbpedia.example.org/ontology/name> ?n . } LIMIT 5'
//   ./build/examples/sparql_shell --federate /tmp/alex_demo_left.nt
//       /tmp/alex_demo_right.nt /tmp/alex_links.nt
//       'SELECT * WHERE { ?s ?p ?o . } LIMIT 5'

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "federation/federated_engine.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "sparql/results_io.h"
#include "common/logging.h"

namespace {

using namespace alex;

enum class OutputMode { kTable, kJson, kTsv };

bool LoadFile(const std::string& path, rdf::Dataset* ds) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  Status s = EndsWith(path, ".ttl")
                 ? rdf::ReadTurtle(in, &ds->dict(), &ds->store())
                 : rdf::ReadNTriples(in, &ds->dict(), &ds->store());
  if (!s.ok()) {
    std::cerr << path << ": " << s << "\n";
    return false;
  }
  ds->BuildEntityIndex();
  std::cerr << "loaded " << path << ": " << ds->num_triples() << " triples, "
            << ds->num_entities() << " entities\n";
  return true;
}

void PrintTable(const sparql::QueryResult& r) {
  for (const std::string& v : r.variables) std::cout << "?" << v << "\t";
  std::cout << "\n";
  for (const auto& row : r.rows) {
    for (const rdf::Term& t : row) std::cout << t.ToNTriples() << "\t";
    std::cout << "\n";
  }
  std::cout << "(" << r.NumRows() << " rows)\n";
}

void PrintFederated(const fed::FederatedResult& r) {
  for (const std::string& v : r.variables) std::cout << "?" << v << "\t";
  std::cout << "\n";
  for (const auto& row : r.rows) {
    for (const rdf::Term& t : row.values) std::cout << t.ToNTriples() << "\t";
    if (!row.links_used.empty()) {
      std::cout << "  # via";
      for (const auto& link : row.links_used) {
        std::cout << " " << link.left_iri << "=" << link.right_iri;
      }
    }
    std::cout << "\n";
  }
  std::cout << "(" << r.NumRows() << " rows)\n";
}

int RunLocal(const rdf::Dataset& ds, const std::string& query,
             OutputMode mode) {
  auto parsed = sparql::ParseQuery(query);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return 1;
  }
  if (parsed->is_ask) {
    auto verdict = sparql::Ask(*parsed, ds);
    if (!verdict.ok()) {
      std::cerr << verdict.status() << "\n";
      return 1;
    }
    if (mode == OutputMode::kJson) {
      sparql::WriteAskJson(*verdict, std::cout);
    } else {
      std::cout << (*verdict ? "yes" : "no") << "\n";
    }
    return 0;
  }
  auto result = sparql::Evaluate(*parsed, ds);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  switch (mode) {
    case OutputMode::kJson:
      sparql::WriteResultsJson(*result, std::cout);
      break;
    case OutputMode::kTsv:
      sparql::WriteResultsTsv(*result, std::cout);
      break;
    case OutputMode::kTable:
      PrintTable(*result);
      break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  alex::InitLoggingFromEnv();
  if (argc < 2) {
    std::cerr << "usage: sparql_shell <data.nt|data.ttl> [--json|--tsv] "
                 "[query]\n       sparql_shell --federate <left> <right> "
                 "<links> [query]\n";
    return 1;
  }

  const bool federate = std::string(argv[1]) == "--federate";
  OutputMode mode = OutputMode::kTable;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") mode = OutputMode::kJson;
    else if (arg == "--tsv") mode = OutputMode::kTsv;
    else if (arg != "--federate") positional.push_back(arg);
  }

  rdf::Dataset left("left");
  rdf::Dataset right("right");
  fed::LinkIndex links;
  std::unique_ptr<fed::Endpoint> left_ep, right_ep;
  std::unique_ptr<fed::FederatedEngine> engine;
  size_t consumed = 0;

  if (federate) {
    if (positional.size() < 3) {
      std::cerr << "--federate needs <left> <right> <links>\n";
      return 1;
    }
    if (!LoadFile(positional[0], &left) || !LoadFile(positional[1], &right)) {
      return 1;
    }
    rdf::Dataset link_data("links");
    if (!LoadFile(positional[2], &link_data)) return 1;
    auto same_as =
        link_data.dict().Lookup(rdf::Term::Iri(std::string(rdf::kOwlSameAs)));
    if (same_as) {
      link_data.store().ForEachMatch(
          rdf::TriplePattern{rdf::kInvalidTermId, *same_as,
                             rdf::kInvalidTermId},
          [&](const rdf::Triple& t) {
            links.Add(link_data.dict().term(t.subject).value,
                      link_data.dict().term(t.object).value);
            return true;
          });
    }
    std::cerr << "link index: " << links.size() << " owl:sameAs links\n";
    left_ep = std::make_unique<fed::Endpoint>(&left);
    right_ep = std::make_unique<fed::Endpoint>(&right);
    engine = std::make_unique<fed::FederatedEngine>(left_ep.get(),
                                                    right_ep.get(), &links);
    consumed = 3;
  } else {
    if (!LoadFile(positional[0], &left)) return 1;
    consumed = 1;
  }

  auto run = [&](const std::string& query) {
    if (engine) {
      auto r = engine->ExecuteText(query);
      if (!r.ok()) {
        std::cerr << r.status() << "\n";
        return 1;
      }
      PrintFederated(*r);
      return 0;
    }
    return RunLocal(left, query, mode);
  };

  if (positional.size() > consumed) {
    std::string query;
    for (size_t i = consumed; i < positional.size(); ++i) {
      if (!query.empty()) query += " ";
      query += positional[i];
    }
    return run(query);
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (std::string(TrimAscii(line)).empty()) break;
    run(line);
  }
  return 0;
}
