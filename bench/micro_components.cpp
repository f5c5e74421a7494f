// MICRO — google-benchmark microbenchmarks of the substrate components:
// the HTML tokenizer/parser the server's DOM scan runs on, the CSS
// reference scanner, ETag-map encode/decode, SHA-1 ETag generation,
// cache operations, and the event-driven fluid link.
#include <benchmark/benchmark.h>

#include "cache/http_cache.h"
#include "html/css.h"
#include "html/generate.h"
#include "html/link_extract.h"
#include "html/parser.h"
#include "http/etag_config.h"
#include "netsim/link.h"
#include "util/hash.h"

namespace {

using namespace catalyst;

std::string sample_page(ByteCount size) {
  html::HtmlBuilder builder("bench page");
  for (int i = 0; i < 4; ++i) {
    builder.add_stylesheet("/assets/style" + std::to_string(i) + ".css");
  }
  for (int i = 0; i < 12; ++i) {
    builder.add_script("/assets/app" + std::to_string(i) + ".js", i % 2);
  }
  for (int i = 0; i < 30; ++i) {
    builder.add_image("/img/pic" + std::to_string(i) + ".webp");
  }
  builder.pad_to(size, 42);
  return builder.build();
}

void BM_HtmlParse(benchmark::State& state) {
  const std::string page =
      sample_page(static_cast<ByteCount>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(html::parse(page));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(page.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HtmlParse)->Arg(16 << 10)->Arg(64 << 10)->Arg(256 << 10);

void BM_LinkExtraction(benchmark::State& state) {
  const std::string page = sample_page(64 << 10);
  const auto doc = html::parse(page);
  for (auto _ : state) {
    benchmark::DoNotOptimize(html::extract_resources(*doc));
  }
}
BENCHMARK(BM_LinkExtraction);

void BM_DomScanEndToEnd(benchmark::State& state) {
  // What the CacheCatalyst module does per (uncached) HTML serve.
  const std::string page =
      sample_page(static_cast<ByteCount>(state.range(0)));
  for (auto _ : state) {
    const auto doc = html::parse(page);
    benchmark::DoNotOptimize(html::extract_resources(*doc));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(page.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DomScanEndToEnd)->Arg(64 << 10);

void BM_CssScan(benchmark::State& state) {
  // A sitegen-shaped stylesheet: a few image and font references, then
  // generated rules. Both the Catalyst module's map build and the browser
  // scan every stylesheet they handle.
  std::vector<std::string> images, fonts;
  for (int i = 0; i < 6; ++i) {
    images.push_back("/img/bg" + std::to_string(i) + ".webp");
  }
  fonts.push_back("/fonts/body.woff2");
  const std::string css = html::make_css(
      images, fonts, {}, static_cast<ByteCount>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(html::extract_css_references(css));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(css.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CssScan)->Arg(27 << 10);

void BM_EtagConfigEncode(benchmark::State& state) {
  http::EtagConfig map;
  for (int i = 0; i < state.range(0); ++i) {
    map.add("/assets/resource-" + std::to_string(i) + ".css",
            http::Etag{"0123456789abcdef", false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.encode());
  }
}
BENCHMARK(BM_EtagConfigEncode)->Arg(50)->Arg(200);

void BM_EtagConfigParse(benchmark::State& state) {
  http::EtagConfig map;
  for (int i = 0; i < state.range(0); ++i) {
    map.add("/assets/resource-" + std::to_string(i) + ".css",
            http::Etag{"0123456789abcdef", false});
  }
  const std::string encoded = map.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::EtagConfig::parse(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(encoded.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EtagConfigParse)->Arg(50)->Arg(200);

void BM_Sha1Etag(benchmark::State& state) {
  const std::string content(static_cast<std::size_t>(state.range(0)), 'y');
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::make_content_etag(content));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(content.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Sha1Etag)->Arg(4 << 10)->Arg(256 << 10);

void BM_HttpCacheLookup(benchmark::State& state) {
  cache::HttpCache cache(MiB(64));
  for (int i = 0; i < 500; ++i) {
    http::Response resp = http::Response::make(http::Status::Ok);
    resp.body = "body";
    resp.headers.set(http::kCacheControl, "max-age=3600");
    resp.headers.set(http::kEtagHeader, "\"e\"");
    resp.finalize(TimePoint{});
    cache.store("https://h/" + std::to_string(i), std::move(resp),
                TimePoint{}, TimePoint{});
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup("https://h/" + std::to_string(i++ % 500),
                     TimePoint{} + seconds(10)));
  }
}
BENCHMARK(BM_HttpCacheLookup);

void BM_FluidLink(benchmark::State& state) {
  // Cost of simulating N concurrent flows through one link.
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    netsim::EventLoop loop;
    netsim::Link link(loop, "l", mbps(60));
    int done = 0;
    for (int i = 0; i < flows; ++i) {
      link.start_transfer(20'000 + static_cast<ByteCount>(i) * 1000,
                          [&done] { ++done; });
    }
    loop.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FluidLink)->Arg(6)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
