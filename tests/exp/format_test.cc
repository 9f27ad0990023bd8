// Pins the CSV and manifest digest formats of every legal column-group mix
// (src/exp/columns.h) on synthetic points. Stored manifests and CSV
// artifacts are matched against these formats, so any change to a column's
// name, position, digest token or number format must show up here.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/columns.h"
#include "src/exp/experiment.h"
#include "src/exp/report.h"

namespace declust::exp {
namespace {

// Synthetic sweep results: every field of every point carries a distinct
// value, so a column printed in the wrong place or from the wrong field
// changes the text.
struct Mix {
  const char* name;
  const char* faults;
  const char* recovery;
  const char* resize;
  const char* open;
  const char* control;
  bool components;
};

const Mix kMixes[] = {
    {"closed", "", "", "", "", "", false},
    {"faults_components_recovery", "disk:node3@t=1s", "repair:node3@t=2s", "",
     "", "", true},
    {"resize_faults", "io:node3@t=0,rate=0.01", "",
     "add:node8@t=1s;remove:node8@t=2s", "", "", false},
    {"open_resize_faults", "io:node3@t=0,rate=0.01", "",
     "add:node8@t=1s;remove:node8@t=2s", "rate:40", "", false},
    {"open_control", "", "", "", "rate:40", "slo:p95<40ms", false},
};

SweepPoint FillPoint(int* k, int index) {
  const auto d = [k] { return ++*k + 1.0 / 3; };
  const auto i = [k] { return int64_t{1000} + ++*k; };
  SweepPoint p;
  p.mpl = static_cast<int>(i());
  for (double* f : {&p.throughput_qps, &p.throughput_ci95,
                    &p.mean_response_ms, &p.mean_response_ci95,
                    &p.p95_response_ms, &p.avg_processors_used,
                    &p.disk_utilization, &p.cpu_utilization,
                    &p.disk_imbalance, &p.comp_disk_wait_ms,
                    &p.comp_disk_service_ms, &p.comp_cpu_ms,
                    &p.comp_network_ms, &p.comp_queue_ms,
                    &p.comp_unattributed_ms, &p.fail_ms,
                    &p.rebuild_start_ms, &p.restored_ms, &p.offered_qps,
                    &p.ctl_budget_max_delay_ms}) {
    *f = d();
  }
  for (int ph = 0; ph < 4; ++ph) p.phase_qps[ph] = d();
  for (int ph = 0; ph < 4; ++ph) p.phase_resp_ms[ph] = d();
  for (int64_t* f :
       {&p.completed, &p.io_errors, &p.retries, &p.timeouts, &p.failovers,
        &p.failed_queries, &p.rebuild_pages, &p.rebuilds_completed,
        &p.rebuilds_aborted, &p.migrations, &p.migrations_aborted,
        &p.pages_migrated, &p.migration_redirects, &p.rebalance_moves,
        &p.arrivals, &p.shed, &p.ctl_windows, &p.ctl_slo_violations,
        &p.ctl_scale_outs, &p.ctl_scale_ins, &p.ctl_pauses, &p.ctl_resumes,
        &p.ctl_tightens, &p.ctl_relaxes, &p.ctl_shed, &p.ctl_migrations,
        &p.ctl_pages_migrated, &p.ctl_budget_throttled}) {
    *f = i();
  }
  for (int* f : {&p.final_members, &p.ctl_final_members,
                 &p.ctl_peak_concurrent}) {
    *f = static_cast<int>(i());
  }
  // The second point has fewer resize phases (the CSV pads it), and an
  // idle window (p99 = -1, a blank CSV field).
  const int phases = index == 0 ? 5 : 3;
  for (int ph = 0; ph < phases; ++ph) {
    p.resize_phase_qps.push_back(d());
    p.resize_phase_resp_ms.push_back(d());
  }
  p.p99_response_ms = index == 0 ? d() : -1;
  return p;
}

SweepResult MakeResult(const Mix& mix) {
  SweepResult r;
  r.config.name = "synthetic";
  r.config.correlation = 0.5;
  r.config.faults = mix.faults;
  r.config.recovery = mix.recovery;
  r.config.resize = mix.resize;
  r.config.open = mix.open;
  r.config.control = mix.control;
  if (!r.config.open.empty()) r.config.offered_loads = {20, 40};
  r.has_components = mix.components;
  int k = 0;
  for (const char* strategy : {"range", "MAGIC"}) {
    StrategyCurve curve;
    curve.strategy = strategy;
    for (int index = 0; index < 2; ++index) {
      curve.points.push_back(FillPoint(&k, index));
    }
    r.curves.push_back(std::move(curve));
  }
  return r;
}

struct Expected {
  const char* csv;
  std::vector<const char*> digests;  ///< one per point, in sweep order
};

// One entry per kMixes entry.
const Expected kExpected[] = {
    {R"csv(figure,strategy,correlation,mpl,throughput_qps,throughput_ci95,mean_response_ms,mean_response_ci95,p95_response_ms,avg_processors,disk_utilization,cpu_utilization,completed
synthetic,range,0.5,1001,2.33333,3.33333,4.33333,5.33333,6.33333,7.33333,8.33333,9.33333,1030
synthetic,range,0.5,1072,73.3333,74.3333,75.3333,76.3333,77.3333,78.3333,79.3333,80.3333,1101
synthetic,MAGIC,0.5,1138,139.333,140.333,141.333,142.333,143.333,144.333,145.333,146.333,1167
synthetic,MAGIC,0.5,1209,210.333,211.333,212.333,213.333,214.333,215.333,216.333,217.333,1238
)csv",
     {
         "range|mpl=1001|qps=2.3333333333333335|resp=4.333333333333333|p95=6.333333333333333|procs=7.333333333333333|disk=8.3333333333333339|cpu=9.3333333333333339|done=1030|imb=10.333333333333334|f=1031/1032/1033/1034/1035",
         "range|mpl=1072|qps=73.333333333333329|resp=75.333333333333329|p95=77.333333333333329|procs=78.333333333333329|disk=79.333333333333329|cpu=80.333333333333329|done=1101|imb=81.333333333333329|f=1102/1103/1104/1105/1106",
         "MAGIC|mpl=1138|qps=139.33333333333334|resp=141.33333333333334|p95=143.33333333333334|procs=144.33333333333334|disk=145.33333333333334|cpu=146.33333333333334|done=1167|imb=147.33333333333334|f=1168/1169/1170/1171/1172",
         "MAGIC|mpl=1209|qps=210.33333333333334|resp=212.33333333333334|p95=214.33333333333334|procs=215.33333333333334|disk=216.33333333333334|cpu=217.33333333333334|done=1238|imb=218.33333333333334|f=1239/1240/1241/1242/1243",
     }},
    {R"csv(figure,strategy,correlation,mpl,throughput_qps,throughput_ci95,mean_response_ms,mean_response_ci95,p95_response_ms,avg_processors,disk_utilization,cpu_utilization,completed,disk_imbalance,io_errors,retries,timeouts,failovers,failed_queries,disk_wait_ms,disk_service_ms,cpu_ms,network_ms,queue_ms,unattributed_ms,fail_ms,rebuild_start_ms,restored_ms,rebuild_pages,normal_qps,degraded_qps,rebuilding_qps,restored_qps,normal_resp_ms,degraded_resp_ms,rebuilding_resp_ms,restored_resp_ms
synthetic,range,0.5,1001,2.33333,3.33333,4.33333,5.33333,6.33333,7.33333,8.33333,9.33333,1030,10.3333,1031,1032,1033,1034,1035,11.3333,12.3333,13.3333,14.3333,15.3333,16.3333,17.3333,18.3333,19.3333,1036,22.3333,23.3333,24.3333,25.3333,26.3333,27.3333,28.3333,29.3333
synthetic,range,0.5,1072,73.3333,74.3333,75.3333,76.3333,77.3333,78.3333,79.3333,80.3333,1101,81.3333,1102,1103,1104,1105,1106,82.3333,83.3333,84.3333,85.3333,86.3333,87.3333,88.3333,89.3333,90.3333,1107,93.3333,94.3333,95.3333,96.3333,97.3333,98.3333,99.3333,100.333
synthetic,MAGIC,0.5,1138,139.333,140.333,141.333,142.333,143.333,144.333,145.333,146.333,1167,147.333,1168,1169,1170,1171,1172,148.333,149.333,150.333,151.333,152.333,153.333,154.333,155.333,156.333,1173,159.333,160.333,161.333,162.333,163.333,164.333,165.333,166.333
synthetic,MAGIC,0.5,1209,210.333,211.333,212.333,213.333,214.333,215.333,216.333,217.333,1238,218.333,1239,1240,1241,1242,1243,219.333,220.333,221.333,222.333,223.333,224.333,225.333,226.333,227.333,1244,230.333,231.333,232.333,233.333,234.333,235.333,236.333,237.333
)csv",
     {
         "range|mpl=1001|qps=2.3333333333333335|resp=4.333333333333333|p95=6.333333333333333|procs=7.333333333333333|disk=8.3333333333333339|cpu=9.3333333333333339|done=1030|imb=10.333333333333334|f=1031/1032/1033/1034/1035|rec=17.333333333333332/18.333333333333332/19.333333333333332|pq=22.333333333333332/23.333333333333332/24.333333333333332/25.333333333333332|pr=26.333333333333332/27.333333333333332/28.333333333333332/29.333333333333332|pages=1036|rb=1037/1038",
         "range|mpl=1072|qps=73.333333333333329|resp=75.333333333333329|p95=77.333333333333329|procs=78.333333333333329|disk=79.333333333333329|cpu=80.333333333333329|done=1101|imb=81.333333333333329|f=1102/1103/1104/1105/1106|rec=88.333333333333329/89.333333333333329/90.333333333333329|pq=93.333333333333329/94.333333333333329/95.333333333333329/96.333333333333329|pr=97.333333333333329/98.333333333333329/99.333333333333329/100.33333333333333|pages=1107|rb=1108/1109",
         "MAGIC|mpl=1138|qps=139.33333333333334|resp=141.33333333333334|p95=143.33333333333334|procs=144.33333333333334|disk=145.33333333333334|cpu=146.33333333333334|done=1167|imb=147.33333333333334|f=1168/1169/1170/1171/1172|rec=154.33333333333334/155.33333333333334/156.33333333333334|pq=159.33333333333334/160.33333333333334/161.33333333333334/162.33333333333334|pr=163.33333333333334/164.33333333333334/165.33333333333334/166.33333333333334|pages=1173|rb=1174/1175",
         "MAGIC|mpl=1209|qps=210.33333333333334|resp=212.33333333333334|p95=214.33333333333334|procs=215.33333333333334|disk=216.33333333333334|cpu=217.33333333333334|done=1238|imb=218.33333333333334|f=1239/1240/1241/1242/1243|rec=225.33333333333334/226.33333333333334/227.33333333333334|pq=230.33333333333334/231.33333333333334/232.33333333333334/233.33333333333334|pr=234.33333333333334/235.33333333333334/236.33333333333334/237.33333333333334|pages=1244|rb=1245/1246",
     }},
    {R"csv(figure,strategy,correlation,mpl,throughput_qps,throughput_ci95,mean_response_ms,mean_response_ci95,p95_response_ms,avg_processors,disk_utilization,cpu_utilization,completed,disk_imbalance,io_errors,retries,timeouts,failovers,failed_queries,migrations,migrations_aborted,pages_migrated,migration_redirects,rebalance_moves,final_members,rz_phase0_qps,rz_phase1_qps,rz_phase2_qps,rz_phase3_qps,rz_phase4_qps,rz_phase0_resp_ms,rz_phase1_resp_ms,rz_phase2_resp_ms,rz_phase3_resp_ms,rz_phase4_resp_ms
synthetic,range,0.5,1001,2.33333,3.33333,4.33333,5.33333,6.33333,7.33333,8.33333,9.33333,1030,10.3333,1031,1032,1033,1034,1035,1039,1040,1041,1042,1043,1058,61.3333,63.3333,65.3333,67.3333,69.3333,62.3333,64.3333,66.3333,68.3333,70.3333
synthetic,range,0.5,1072,73.3333,74.3333,75.3333,76.3333,77.3333,78.3333,79.3333,80.3333,1101,81.3333,1102,1103,1104,1105,1106,1110,1111,1112,1113,1114,1129,132.333,134.333,136.333,0,0,133.333,135.333,137.333,0,0
synthetic,MAGIC,0.5,1138,139.333,140.333,141.333,142.333,143.333,144.333,145.333,146.333,1167,147.333,1168,1169,1170,1171,1172,1176,1177,1178,1179,1180,1195,198.333,200.333,202.333,204.333,206.333,199.333,201.333,203.333,205.333,207.333
synthetic,MAGIC,0.5,1209,210.333,211.333,212.333,213.333,214.333,215.333,216.333,217.333,1238,218.333,1239,1240,1241,1242,1243,1247,1248,1249,1250,1251,1266,269.333,271.333,273.333,0,0,270.333,272.333,274.333,0,0
)csv",
     {
         "range|mpl=1001|qps=2.3333333333333335|resp=4.333333333333333|p95=6.333333333333333|procs=7.333333333333333|disk=8.3333333333333339|cpu=9.3333333333333339|done=1030|imb=10.333333333333334|f=1031/1032/1033/1034/1035|rz=1039/1040/1041/1042/1043|mem=1058|z0=61.333333333333336/62.333333333333336|z1=63.333333333333336/64.333333333333329|z2=65.333333333333329/66.333333333333329|z3=67.333333333333329/68.333333333333329|z4=69.333333333333329/70.333333333333329",
         "range|mpl=1072|qps=73.333333333333329|resp=75.333333333333329|p95=77.333333333333329|procs=78.333333333333329|disk=79.333333333333329|cpu=80.333333333333329|done=1101|imb=81.333333333333329|f=1102/1103/1104/1105/1106|rz=1110/1111/1112/1113/1114|mem=1129|z0=132.33333333333334/133.33333333333334|z1=134.33333333333334/135.33333333333334|z2=136.33333333333334/137.33333333333334",
         "MAGIC|mpl=1138|qps=139.33333333333334|resp=141.33333333333334|p95=143.33333333333334|procs=144.33333333333334|disk=145.33333333333334|cpu=146.33333333333334|done=1167|imb=147.33333333333334|f=1168/1169/1170/1171/1172|rz=1176/1177/1178/1179/1180|mem=1195|z0=198.33333333333334/199.33333333333334|z1=200.33333333333334/201.33333333333334|z2=202.33333333333334/203.33333333333334|z3=204.33333333333334/205.33333333333334|z4=206.33333333333334/207.33333333333334",
         "MAGIC|mpl=1209|qps=210.33333333333334|resp=212.33333333333334|p95=214.33333333333334|procs=215.33333333333334|disk=216.33333333333334|cpu=217.33333333333334|done=1238|imb=218.33333333333334|f=1239/1240/1241/1242/1243|rz=1247/1248/1249/1250/1251|mem=1266|z0=269.33333333333331/270.33333333333331|z1=271.33333333333331/272.33333333333331|z2=273.33333333333331/274.33333333333331",
     }},
    {R"csv(figure,strategy,correlation,mpl,throughput_qps,throughput_ci95,mean_response_ms,mean_response_ci95,p95_response_ms,avg_processors,disk_utilization,cpu_utilization,completed,disk_imbalance,io_errors,retries,timeouts,failovers,failed_queries,migrations,migrations_aborted,pages_migrated,migration_redirects,rebalance_moves,final_members,rz_phase0_qps,rz_phase1_qps,rz_phase2_qps,rz_phase3_qps,rz_phase4_qps,rz_phase0_resp_ms,rz_phase1_resp_ms,rz_phase2_resp_ms,rz_phase3_resp_ms,rz_phase4_resp_ms,offered_qps,arrivals,shed,p99_response_ms
synthetic,range,0.5,1001,2.33333,3.33333,4.33333,5.33333,6.33333,7.33333,8.33333,9.33333,1030,10.3333,1031,1032,1033,1034,1035,1039,1040,1041,1042,1043,1058,61.3333,63.3333,65.3333,67.3333,69.3333,62.3333,64.3333,66.3333,68.3333,70.3333,20.3333,1044,1045,71.3333
synthetic,range,0.5,1072,73.3333,74.3333,75.3333,76.3333,77.3333,78.3333,79.3333,80.3333,1101,81.3333,1102,1103,1104,1105,1106,1110,1111,1112,1113,1114,1129,132.333,134.333,136.333,0,0,133.333,135.333,137.333,0,0,91.3333,1115,1116,
synthetic,MAGIC,0.5,1138,139.333,140.333,141.333,142.333,143.333,144.333,145.333,146.333,1167,147.333,1168,1169,1170,1171,1172,1176,1177,1178,1179,1180,1195,198.333,200.333,202.333,204.333,206.333,199.333,201.333,203.333,205.333,207.333,157.333,1181,1182,208.333
synthetic,MAGIC,0.5,1209,210.333,211.333,212.333,213.333,214.333,215.333,216.333,217.333,1238,218.333,1239,1240,1241,1242,1243,1247,1248,1249,1250,1251,1266,269.333,271.333,273.333,0,0,270.333,272.333,274.333,0,0,228.333,1252,1253,
)csv",
     {
         "range|mpl=1001|qps=2.3333333333333335|resp=4.333333333333333|p95=6.333333333333333|procs=7.333333333333333|disk=8.3333333333333339|cpu=9.3333333333333339|done=1030|imb=10.333333333333334|f=1031/1032/1033/1034/1035|rz=1039/1040/1041/1042/1043|mem=1058|z0=61.333333333333336/62.333333333333336|z1=63.333333333333336/64.333333333333329|z2=65.333333333333329/66.333333333333329|z3=67.333333333333329/68.333333333333329|z4=69.333333333333329/70.333333333333329|open=20.333333333333332|arr=1044|shed=1045|p99=71.333333333333329",
         "range|mpl=1072|qps=73.333333333333329|resp=75.333333333333329|p95=77.333333333333329|procs=78.333333333333329|disk=79.333333333333329|cpu=80.333333333333329|done=1101|imb=81.333333333333329|f=1102/1103/1104/1105/1106|rz=1110/1111/1112/1113/1114|mem=1129|z0=132.33333333333334/133.33333333333334|z1=134.33333333333334/135.33333333333334|z2=136.33333333333334/137.33333333333334|open=91.333333333333329|arr=1115|shed=1116|p99=-1",
         "MAGIC|mpl=1138|qps=139.33333333333334|resp=141.33333333333334|p95=143.33333333333334|procs=144.33333333333334|disk=145.33333333333334|cpu=146.33333333333334|done=1167|imb=147.33333333333334|f=1168/1169/1170/1171/1172|rz=1176/1177/1178/1179/1180|mem=1195|z0=198.33333333333334/199.33333333333334|z1=200.33333333333334/201.33333333333334|z2=202.33333333333334/203.33333333333334|z3=204.33333333333334/205.33333333333334|z4=206.33333333333334/207.33333333333334|open=157.33333333333334|arr=1181|shed=1182|p99=208.33333333333334",
         "MAGIC|mpl=1209|qps=210.33333333333334|resp=212.33333333333334|p95=214.33333333333334|procs=215.33333333333334|disk=216.33333333333334|cpu=217.33333333333334|done=1238|imb=218.33333333333334|f=1239/1240/1241/1242/1243|rz=1247/1248/1249/1250/1251|mem=1266|z0=269.33333333333331/270.33333333333331|z1=271.33333333333331/272.33333333333331|z2=273.33333333333331/274.33333333333331|open=228.33333333333334|arr=1252|shed=1253|p99=-1",
     }},
    {R"csv(figure,strategy,correlation,mpl,throughput_qps,throughput_ci95,mean_response_ms,mean_response_ci95,p95_response_ms,avg_processors,disk_utilization,cpu_utilization,completed,offered_qps,arrivals,shed,p99_response_ms,ctl_windows,ctl_slo_violations,ctl_scale_outs,ctl_scale_ins,ctl_pauses,ctl_resumes,ctl_tightens,ctl_relaxes,ctl_shed,ctl_migrations,ctl_pages_migrated,ctl_final_members,ctl_peak_concurrent,ctl_budget_throttled,ctl_budget_max_delay_ms
synthetic,range,0.5,1001,2.33333,3.33333,4.33333,5.33333,6.33333,7.33333,8.33333,9.33333,1030,20.3333,1044,1045,71.3333,1046,1047,1048,1049,1050,1051,1052,1053,1054,1055,1056,1059,1060,1057,21.3333
synthetic,range,0.5,1072,73.3333,74.3333,75.3333,76.3333,77.3333,78.3333,79.3333,80.3333,1101,91.3333,1115,1116,,1117,1118,1119,1120,1121,1122,1123,1124,1125,1126,1127,1130,1131,1128,92.3333
synthetic,MAGIC,0.5,1138,139.333,140.333,141.333,142.333,143.333,144.333,145.333,146.333,1167,157.333,1181,1182,208.333,1183,1184,1185,1186,1187,1188,1189,1190,1191,1192,1193,1196,1197,1194,158.333
synthetic,MAGIC,0.5,1209,210.333,211.333,212.333,213.333,214.333,215.333,216.333,217.333,1238,228.333,1252,1253,,1254,1255,1256,1257,1258,1259,1260,1261,1262,1263,1264,1267,1268,1265,229.333
)csv",
     {
         "range|mpl=1001|qps=2.3333333333333335|resp=4.333333333333333|p95=6.333333333333333|procs=7.333333333333333|disk=8.3333333333333339|cpu=9.3333333333333339|done=1030|imb=10.333333333333334|f=1031/1032/1033/1034/1035|open=20.333333333333332|arr=1044|shed=1045|p99=71.333333333333329|ctl=1046/1047|act=1048/1049/1050/1051/1052/1053|cshed=1054|cmig=1055/1056/1059/1060|bud=1057/21.333333333333332",
         "range|mpl=1072|qps=73.333333333333329|resp=75.333333333333329|p95=77.333333333333329|procs=78.333333333333329|disk=79.333333333333329|cpu=80.333333333333329|done=1101|imb=81.333333333333329|f=1102/1103/1104/1105/1106|open=91.333333333333329|arr=1115|shed=1116|p99=-1|ctl=1117/1118|act=1119/1120/1121/1122/1123/1124|cshed=1125|cmig=1126/1127/1130/1131|bud=1128/92.333333333333329",
         "MAGIC|mpl=1138|qps=139.33333333333334|resp=141.33333333333334|p95=143.33333333333334|procs=144.33333333333334|disk=145.33333333333334|cpu=146.33333333333334|done=1167|imb=147.33333333333334|f=1168/1169/1170/1171/1172|open=157.33333333333334|arr=1181|shed=1182|p99=208.33333333333334|ctl=1183/1184|act=1185/1186/1187/1188/1189/1190|cshed=1191|cmig=1192/1193/1196/1197|bud=1194/158.33333333333334",
         "MAGIC|mpl=1209|qps=210.33333333333334|resp=212.33333333333334|p95=214.33333333333334|procs=215.33333333333334|disk=216.33333333333334|cpu=217.33333333333334|done=1238|imb=218.33333333333334|f=1239/1240/1241/1242/1243|open=228.33333333333334|arr=1252|shed=1253|p99=-1|ctl=1254/1255|act=1256/1257/1258/1259/1260/1261|cshed=1262|cmig=1263/1264/1267/1268|bud=1265/229.33333333333334",
     }},
};

TEST(FormatTest, CsvAndDigestKeysOfEveryLegalMix) {
  static_assert(std::size(kMixes) == std::size(kExpected));
  for (size_t m = 0; m < std::size(kMixes); ++m) {
    SCOPED_TRACE(kMixes[m].name);
    const SweepResult result = MakeResult(kMixes[m]);
    std::ostringstream csv;
    PrintCsv(csv, result);
    EXPECT_EQ(csv.str(), kExpected[m].csv);
    std::vector<std::string> digests;
    for (const auto& curve : result.curves) {
      for (const auto& p : curve.points) {
        digests.push_back(PointDigestKey(result, curve.strategy, p));
      }
    }
    ASSERT_EQ(digests.size(), kExpected[m].digests.size());
    for (size_t i = 0; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i], kExpected[m].digests[i]) << "point " << i;
    }
  }
}

TEST(FormatTest, OpenReportsLabelLevelsByOfferedLoad) {
  // Every text block of an open run names a point's level by its offered
  // load; the level index behind SweepPoint::mpl never shows.
  const SweepResult open = MakeResult(kMixes[3]);
  std::ostringstream text;
  PrintThroughputTable(text, open);
  EXPECT_EQ(text.str().find("@ MPL"), std::string::npos) << text.str();
  for (const char* block :
       {"\nopen system: rate:40\n"
        "  range @ 91.3 q/s offered: arrivals 1115, shed 1116, p99 -\n",
        "\nfaults: io:node3@t=0,rate=0.01\n"
        "  range @ 91.3 q/s offered: imbalance 81.33, io_errors 1102, "
        "retries 1103, failovers 1105, timeouts 1104, failed 1106\n"
        "  MAGIC @ 228.3 q/s offered: imbalance 218.33, io_errors 1239, "
        "retries 1240, failovers 1242, timeouts 1241, failed 1243\n"
        "resize: add:node8@t=1s;remove:node8@t=2s\n"
        "  range @ 20.3 q/s offered: 1039 migrations (1040 aborted), ",
        "\n  MAGIC @ 228.3 q/s offered: 1247 migrations (1248 aborted), "}) {
    EXPECT_NE(text.str().find(block), std::string::npos)
        << block << "\nin:\n" << text.str();
  }
  // Closed runs keep their MPL labels.
  const SweepResult closed = MakeResult(kMixes[2]);
  std::ostringstream closed_text;
  PrintThroughputTable(closed_text, closed);
  EXPECT_NE(closed_text.str().find("  range @ MPL 1072: imbalance 81.33"),
            std::string::npos)
      << closed_text.str();
  EXPECT_NE(closed_text.str().find("  MAGIC @ MPL 1209: 1247 migrations"),
            std::string::npos)
      << closed_text.str();
}

}  // namespace
}  // namespace declust::exp
